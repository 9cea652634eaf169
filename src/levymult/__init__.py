"""Non-symmetric Fourier multipliers driven by jump processes.

Builds multiplier symbols from a jump measure, a spherical (Gaussian)
measure, a drift, and a pair of linear maps; applies them spectrally on
periodic grids; and verifies the construction by exact compound-Poisson
and Brownian Monte Carlo.
"""

from .levy import (
    AtomsMeasure,
    IDENTITY_MOD,
    LevyData,
    ModSpec,
    Modulator,
    RadialProductMeasure,
    SphericalMeasure,
    StableMeasure,
    approximate,
    ball_mod,
    constant_mod,
    cross_form,
    drift_reduce,
    halfspace_mod,
    make_data,
    phase_mod,
    psi,
    psi_tilde,
    sign_mod,
    stable_coefficient,
    table_mod,
    validate,
)
from .mc import (
    BrownianEstimate,
    PairingEstimate,
    brownian_pairing,
    check_subordination,
    estimate_pairing,
    gaussian_spectral_value,
    run_cpp_paths,
    spectral_pairing_value,
    within_sigmas,
)
from .spectral import (
    PairingResult,
    ProbeReport,
    SampledField,
    apply_multiplier,
    field_from_function,
    gaussian_bump,
    lp_norm,
    norm_probe,
    p_star_minus_one,
    pairing,
    semigroup_eval,
    transform_forward,
    transform_inverse,
)
from .symbols import (
    SymbolGrid,
    SymbolSpec,
    evaluate_grid,
    preset_log_symbol,
    q_func,
    riesz_matrix,
    symbol_gaussian,
    symbol_gaussian_limit,
    symbol_integral,
    symbol_limit,
    symbol_q,
    symbol_stable,
)

__version__ = "0.1.0"
