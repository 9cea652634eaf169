"""Symbol formulas, equivalences, presets, and grid tabulation."""

import warnings

import numpy as np
import pytest

from levymult import (
    AtomsMeasure,
    IDENTITY_MOD,
    Modulator,
    SphericalMeasure,
    StableMeasure,
    SymbolSpec,
    approximate,
    evaluate_grid,
    gaussian_bump,
    make_data,
    preset_log_symbol,
    psi,
    psi_tilde,
    q_func,
    riesz_matrix,
    sign_mod,
    stable_coefficient,
    symbol_gaussian,
    symbol_gaussian_limit,
    symbol_integral,
    symbol_limit,
    symbol_q,
    symbol_stable,
    table_mod,
)
from levymult import symbols
from levymult.errors import (
    AlphaOutOfRange,
    DegenerateDenominator,
    GridMismatch,
    KNormExceedsOne,
    RequiresEqualMatrices,
    ShapeMismatch,
    SymbolBoundViolation,
    SymbolSpecError,
    ZeroCoordinate,
    ZeroFrequencyVector,
)


# ---------------------------------------------------------------------------
# q
# ---------------------------------------------------------------------------


def test_q_at_zero_and_one():
    assert q_func(0.0) == 1.0
    assert q_func(1.0) == pytest.approx(np.e - 1.0, rel=1e-15)


def test_q_series_accuracy_near_zero():
    # below the series cutoff the ratio form would cancel; the series keeps
    # full precision (next omitted term is ~ z^5/720)
    for z in (1e-8, 1e-6 + 1e-6j, -1e-4j):
        exact = 1.0 + z / 2 + z**2 / 6 + z**3 / 24 + z**4 / 120
        assert abs(q_func(z) - exact) <= 1e-12 * abs(exact)
    assert q_func(1e-8) == pytest.approx(1.0 + 5e-9, rel=1e-12)


# ---------------------------------------------------------------------------
# q-form and integral form
# ---------------------------------------------------------------------------


def test_symbol_q_zero_frequency(mixed_atoms_data, complex_phi):
    assert symbol_q(mixed_atoms_data, complex_phi, [0.0]) == 0.0


def test_symbol_q_identity_phi_reduction(single_atom_data):
    # phi = 1, A = B collapses the symbol to 1 - e^{psi(xi) + psi(-xi)}
    for xi, want in ((np.pi, 1.0 - np.exp(-4.0)), (np.pi / 2, 1.0 - np.exp(-2.0))):
        got = symbol_q(single_atom_data, IDENTITY_MOD, [xi])
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symbol_equivalence_q_vs_integral(seed):
    rng = np.random.default_rng(seed)
    configs = [
        (make_data(AtomsMeasure([[1.0]], [1.0]), A=[[1.0]], B=[[1.0]]), IDENTITY_MOD),
        (make_data(AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4]),
                   A=[[1.0]], B=[[-1.0]]),
         Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j]))),
        (make_data(AtomsMeasure([[0.8], [1.7]], [0.6, 0.9]),
                   mu=SphericalMeasure([[1.0]], [0.4]),
                   gamma=[0.3], A=[[2.0]], B=[[0.5]]),
         Modulator(phi=table_mod([0.9j, -0.4]), psi=table_mod([0.8]))),
    ]
    for data, mod in configs:
        xi = rng.normal(size=(200, 1)) * 4.0
        gap = np.abs(symbol_q(data, mod, xi) - symbol_integral(data, mod, xi))
        assert gap.max() < 1e-10


def test_symbol_integral_switches_convention_per_row(single_atom_data):
    # xi = 0 and 2 pi make both cross integrals of the single atom vanish, so
    # those rows take the product convention while their neighbours take the ratio
    xi = np.array([[0.0], [1.3], [2.0 * np.pi], [-0.7]])
    batch = symbol_integral(single_atom_data, IDENTITY_MOD, xi)
    rows = [symbol_integral(single_atom_data, IDENTITY_MOD, row) for row in xi]
    assert np.max(np.abs(batch - rows)) <= 1e-15
    assert np.max(np.abs(batch - symbol_q(single_atom_data, IDENTITY_MOD, xi))) < 1e-10


def test_symbol_hermitian_for_identity_phi(single_atom_data):
    rng = np.random.default_rng(5)
    xi = rng.normal(size=(50, 1)) * 4.0
    vals = symbol_q(single_atom_data, IDENTITY_MOD, xi)
    assert np.max(np.abs(symbol_q(single_atom_data, IDENTITY_MOD, -xi)
                         - vals.conj())) < 1e-10


def test_symbol_continuity_probe(mixed_atoms_data, complex_phi):
    rng = np.random.default_rng(6)
    for _ in range(20):
        xi = rng.normal() * 3.0 + 0.5
        gaps = [abs(symbol_q(mixed_atoms_data, complex_phi, [xi + h])
                    - symbol_q(mixed_atoms_data, complex_phi, [xi]))
                for h in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] < 0.2
        assert gaps[2] < gaps[0] + 1e-12
        assert gaps[2] < 1e-2


# ---------------------------------------------------------------------------
# limit form and u-scaling
# ---------------------------------------------------------------------------


def test_symbol_limit_sphere_ratio():
    mu = SphericalMeasure([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    data = make_data(AtomsMeasure([[5.0, 0.0]], [1e-12]), mu=mu,
                     A=np.eye(2), B=np.eye(2))
    mod = Modulator(psi=table_mod([1.0, -1.0]))
    assert symbol_limit(data, mod, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    assert symbol_limit(data, mod, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-9)


def test_symbol_limit_identity_modulator(single_atom_data):
    for xi in (0.7, 1.9, 3.1):
        assert symbol_limit(single_atom_data, IDENTITY_MOD, [xi]) == \
            pytest.approx(1.0, abs=1e-12)


def test_symbol_limit_requires_equal_maps(mixed_atoms_data, complex_phi):
    with pytest.raises(RequiresEqualMatrices):
        symbol_limit(mixed_atoms_data, complex_phi, [1.0])


def test_symbol_limit_degenerate_at_zero(single_atom_data):
    with pytest.raises(DegenerateDenominator):
        symbol_limit(single_atom_data, IDENTITY_MOD, [0.0])


def test_u_scaling_converges_to_limit():
    nu = AtomsMeasure([[1.0], [0.4]], [0.02, 0.012])
    mu = SphericalMeasure([[1.0]], [0.01])
    data = make_data(nu, mu=mu, A=[[1.0]], B=[[1.0]])
    mod = Modulator(phi=table_mod([0.6, -0.7j]), psi=table_mod([-0.5]))
    xi = [[0.7], [1.3], [2.2]]
    lim = symbol_limit(data, mod, xi)
    errs = [np.max(np.abs(symbol_q(data, mod, xi, u=u) - lim))
            for u in (1.0, 10.0, 100.0, 1000.0)]
    assert all(errs[i + 1] <= errs[i] + 1e-14 for i in range(3))
    assert errs[-1] < 1e-6


@pytest.mark.parametrize("symbol", [symbol_q, symbol_limit])
def test_symbols_from_one_exponent_call_match_separate_calls(symbol, monkeypatch):
    # symbol_q and symbol_limit take psi and psi_tilde from one shared pass
    # over the atoms; the same symbols built from separate calls agree
    rng = np.random.default_rng(8)
    atoms = rng.uniform(0.05, 3.0, (3000, 1)) * rng.choice([-1.0, 1.0], (3000, 1))
    data = make_data(AtomsMeasure(atoms, rng.uniform(0.0, 0.01, 3000)),
                     mu=SphericalMeasure([[1.0]], [0.3]), gamma=[0.4], A=[[1.0]], B=[[1.0]])
    mod = Modulator(phi=table_mod(rng.uniform(-0.9, 0.9, 3000) * 1j ** rng.integers(0, 4, 3000)),
                    psi=table_mod([-0.6]))
    xi = rng.normal(size=(1500, 1)) * 3.0
    shared = symbol(data, mod, xi)
    monkeypatch.setattr(symbols, "exponents",
                        lambda data, mod, zeta: (psi(data, zeta), psi_tilde(data, mod, zeta)))
    separate = symbol(data, mod, xi)
    assert np.max(np.abs(shared - separate)) <= 1e-13 * np.max(np.abs(separate))


# ---------------------------------------------------------------------------
# Gaussian branch
# ---------------------------------------------------------------------------


def test_symbol_gaussian_scalar_case():
    got = symbol_gaussian([[1.0]], [[1.0]], [[1.0]], [1.0])
    assert got == pytest.approx(1.0 - np.exp(-2.0), abs=1e-14)
    assert symbol_gaussian([[1.0]], [[1.0]], [[1.0]], [0.0]) == 0.0


def test_symbol_gaussian_orthogonal_convention_branch():
    # A picks xi_1, B picks xi_2; at xi = (1, 1) the bilinear denominator is 0
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [0.0, 1.0]])
    got = symbol_gaussian(A.T, B.T, np.eye(2), [1.0, 1.0])
    assert got == pytest.approx(0.0, abs=1e-14)


def test_symbol_gaussian_rejects_expanding_K():
    with pytest.raises(KNormExceedsOne):
        symbol_gaussian([[1.0]], [[1.0]], [[1.0 + 1e-6]], [1.0])


@pytest.mark.parametrize("A, B, K", [
    ([[1.0]], [[1.0]], np.eye(2)),                 # K is not n x n
    ([[1.0, 0.0]], [[1.0]], [[0.5]]),              # A and B differ in shape
])
def test_symbol_gaussian_names_bad_maps(A, B, K):
    # these used to end in numpy's bare matmul ValueError
    with pytest.raises(ShapeMismatch):
        symbol_gaussian(A, B, K, [1.0])
    if A == B:
        with pytest.raises(ShapeMismatch):
            symbol_gaussian_limit(A, K, [1.0])


def test_symbol_gaussian_limit_riesz():
    K = riesz_matrix(0, 1, 2)
    assert symbol_gaussian_limit(np.eye(2), K, [1.0, 1.0]) == \
        pytest.approx(-1.0, abs=1e-15)
    assert symbol_gaussian_limit(np.eye(2), K, [1.0, 0.0]) == 0.0
    assert symbol_gaussian_limit(np.eye(2), np.eye(2), [0.3, -2.0]) == \
        pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ZeroFrequencyVector):
        symbol_gaussian_limit(np.eye(2), K, [0.0, 0.0])


def test_symbol_gaussian_var_scale_branches_coincide_up_to_matrix_scaling():
    # exponents at scale 1 equal exponents at scale 1/2 with sqrt(2)-scaled maps
    xi = np.array([[0.8], [1.7]])
    s1 = symbol_gaussian([[1.0]], [[0.6]], [[0.5j]], xi, var_scale=1.0)
    s2 = symbol_gaussian([[np.sqrt(2.0)]], [[0.6 * np.sqrt(2.0)]], [[0.5j]], xi,
                         var_scale=0.5)
    assert np.max(np.abs(s1 - s2)) < 1e-14
    # degenerate bilinear denominator: (a, b) = 0 at every xi
    A, B = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    K = 0.9 * np.array([[0.0, 1.0], [1.0, 0.0]])
    d1 = symbol_gaussian(A, B, K, xi, var_scale=1.0)
    d2 = symbol_gaussian(np.sqrt(2.0) * A, np.sqrt(2.0) * B, K, xi, var_scale=0.5)
    assert np.max(np.abs(d1)) > 0.1
    assert np.max(np.abs(d1 - d2)) < 1e-14


@pytest.mark.parametrize("var_scale", [0.5, 1.0, 2.0])
def test_symbol_gaussian_continuous_across_degenerate_denominator(var_scale):
    K = 0.9 * np.array([[0.0, 1.0], [1.0, 0.0]])

    def at(eps):
        return symbol_gaussian([[1.0, 0.0]], [[eps, 1.0]], K, [1.3], var_scale=var_scale)

    limit = 2.0 * var_scale * np.exp(-var_scale * 2.0 * 1.3 ** 2) * 0.9 * 1.3 ** 2
    assert at(0.0) == pytest.approx(limit, rel=1e-14)
    assert abs(at(1e-7) - at(0.0)) < 1e-6 * abs(at(0.0))


# ---------------------------------------------------------------------------
# stable symbol and presets
# ---------------------------------------------------------------------------


def test_symbol_stable_frozen_values():
    # magnitudes tan(pi a/2)(e^{-|2 xi|^a} - e^{-2|xi|^a}); the sign is the
    # construction's own (see the epsilon-approximation cross-check below)
    got = symbol_stable(0.5, 1.0)
    assert got == pytest.approx(-0.10778145119760148j, abs=1e-15)
    got1 = symbol_stable(1.0, 1.0)
    assert got1 == pytest.approx(-(4 * np.log(2) / np.pi) * np.exp(-2.0) * 1j,
                                 abs=1e-15)
    assert abs(got1) == pytest.approx(0.11943912575495653, abs=1e-15)


def test_symbol_stable_is_odd_hence_nonsymmetric():
    x = np.array([0.3, 1.0, 2.4])
    vals = symbol_stable(0.5, x)
    assert np.max(np.abs(symbol_stable(0.5, -x) + vals)) < 1e-15
    assert np.all(np.abs(vals) > 0.0)


def test_symbol_stable_matches_construction_on_surrogate():
    # independent route: q-form on the finite-activity surrogate measure
    data = make_data(StableMeasure(0.5, 1), A=[[-1.0]], B=[[1.0]])
    d_eps, m_eps = approximate(data, Modulator(phi=sign_mod()), 0.01, zeta_max=3.0)
    for xi in (0.5, 1.0):
        assert symbol_q(d_eps, m_eps, [xi]) == \
            pytest.approx(symbol_stable(0.5, xi), rel=2e-2)


def test_symbol_stable_alpha_one_window_continuity():
    lo = symbol_stable(1.0 - 1e-7, 0.8)
    hi = symbol_stable(1.0 + 1e-7, 0.8)
    mid = symbol_stable(1.0, 0.8)
    assert lo == pytest.approx(mid, rel=1e-5)
    assert hi == pytest.approx(mid, rel=1e-5)


def test_symbol_stable_conditioned_near_alpha_one():
    # no switch window and no warning: the tan form itself tends to the limit
    x = np.array([0.3, 1.0, 2.4])
    limit = symbol_stable(1.0, x)
    for k in range(3, 13):
        for alpha in (1.0 - 10.0**-k, 1.0 + 10.0**-k):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = symbol_stable(alpha, x)
            assert np.all(np.abs(vals - limit) <= 10.0 * abs(alpha - 1.0) * np.abs(limit))


def test_symbol_stable_finite_at_large_frequency():
    # e^{-2p} and expm1(-2pE) alone under- and overflow for alpha < 1
    for alpha in (0.5, 0.9, 1.5):
        vals = symbol_stable(alpha, [2e4, -3e6])
        assert np.all(np.isfinite(vals)) and np.max(np.abs(vals)) < 1e-80


def test_symbol_q_stable_small_frequency_sweep():
    # the sign-weighted stable model through its ray integrals down to |xi| = 1e-4
    x = np.geomspace(1e-4, 0.05, 200)
    x = np.concatenate([x, -x])
    for alpha in (0.5, 0.75):
        data = make_data(StableMeasure(alpha, 1), A=[[-1.0]], B=[[1.0]])
        got = symbol_q(data, Modulator(phi=sign_mod()), x[:, None])
        assert np.max(np.abs(got - symbol_stable(alpha, x))) < 1e-12


def test_symbol_q_stable_mid_alpha_sweep():
    # 1 < alpha < 2: the ray integral's linear term -ic / (1 - alpha) cancels
    # in the q-form's bracket
    x = np.array([0.6, 1.2, -0.8, 2.0])
    x = np.concatenate([x, -x])
    for alpha in (1.25, 1.5, 1.7):
        data = make_data(StableMeasure(alpha, 1), A=[[-1.0]], B=[[1.0]])
        got = symbol_q(data, Modulator(phi=sign_mod()), x[:, None])
        assert np.max(np.abs(got - symbol_stable(alpha, x))) < 1e-9
        assert np.max(np.abs(got[:4] + got[4:])) <= 1e-12


def test_symbol_q_stable_alpha_1_9():
    # near alpha = 2 the q-form stays finite and raises no flag
    x = np.array([0.314, 0.6, 1.2, 2.0, -0.8])
    data = make_data(StableMeasure(1.9, 1), A=[[-1.0]], B=[[1.0]])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = symbol_q(data, Modulator(phi=sign_mod()), np.concatenate([x, -x])[:, None])
    want = symbol_stable(1.9, x)
    assert np.max(np.abs(got[:5] - want) / np.abs(want)) < 1e-9
    assert np.max(np.abs(got[:5] + got[5:])) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6, 1.5, 1.9])
def test_symbol_q_stable_conditioned_near_alpha_one(alpha):
    # Gamma(-alpha) (-ic)^alpha and ic / (alpha - 1) each have a pole at alpha = 1;
    # the ray integral is formed without either, so the radial model keeps its
    # digits there and at alpha = 1 itself.  psi pins Re f, the q-form Im f.
    data = make_data(StableMeasure(alpha, 1).as_radial(), A=[[-1.0]], B=[[1.0]])
    x = np.array([1e-4, 0.05, 0.3, 1.0, 2.5, -0.7])
    got = symbol_q(data, Modulator(phi=sign_mod()), x[:, None])
    want = symbol_stable(alpha, x)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    want_psi = -np.abs(x) ** alpha
    assert np.max(np.abs(psi(data, x[:, None]) - want_psi) / np.abs(want_psi)) <= 1e-14


def test_symbol_stable_alpha_range():
    with pytest.raises(AlphaOutOfRange):
        symbol_stable(2.0, 1.0)


def test_preset_log_symbol_values():
    assert preset_log_symbol(0, 2, [1.0, 1.0]) == pytest.approx(0.5, abs=1e-15)
    assert preset_log_symbol(0, 2, [1.0, 2.0]) == \
        pytest.approx(np.log(2.0) / (np.log(2.0) + np.log(1.25)), abs=1e-12)
    with pytest.raises(ZeroCoordinate):
        preset_log_symbol(0, 2, [0.0, 1.0])


@pytest.mark.parametrize("build, error, match", [
    (lambda: SymbolSpec(variant="q_from"), SymbolSpecError, "variant 'q_from'"),
    (lambda: SymbolSpec(variant="preset", preset="sobolev"), SymbolSpecError, "'sobolev'"),
    (lambda: SymbolSpec(variant="preset", preset="riesz", d=1), SymbolSpecError, "k = 1 "),
    (lambda: SymbolSpec(variant="preset", preset="log", d=2, j=2), SymbolSpecError, "j = 2 "),
    (lambda: SymbolSpec(variant="preset", preset="riesz", d=3, k=1.5), SymbolSpecError,
     "k = 1.5 "),
    (lambda: SymbolSpec(variant="stable", d=2), SymbolSpecError, "one-dimensional"),
    (lambda: riesz_matrix(0, 1, 1), SymbolSpecError, "k = 1 "),
    (lambda: preset_log_symbol(2, 2, [1.0, 1.0]), SymbolSpecError, "j = 2 "),
    (lambda: evaluate_grid(SymbolSpec(variant="preset", preset="riesz", d=4)), GridMismatch,
     "d = 4"),
    (lambda: gaussian_bump(40.0, 64, 1, center=[0.1, 5.0]), ShapeMismatch, "center"),
    (lambda: gaussian_bump(40.0, 64, 1, phase_freq=[0.1, 5.0]), ShapeMismatch, "phase_freq"),
])
def test_symbol_and_field_constructors_name_bad_input(build, error, match):
    # these used to raise a bare IndexError, KeyError or ValueError, or nothing at all
    # (zip dropped the extra entry, and an unchecked spec failed only when called)
    with pytest.raises(error, match=match):
        build()


def test_preset_log_symbol_in_unit_interval():
    rng = np.random.default_rng(7)
    xi = rng.normal(size=(100, 2)) * 5.0
    xi[np.abs(xi) < 1e-3] = 1e-3
    vals = preset_log_symbol(0, 2, xi).real
    assert np.all((vals > 0.0) & (vals < 1.0))


def test_stable_constant_gamma_arithmetic():
    assert stable_coefficient(1.0, 1) == pytest.approx(1.0 / np.pi, rel=1e-14)
    # Gamma(3/4) 2^(1/2) pi^(-1/2) / |Gamma(-1/4)|
    import math
    want = math.gamma(0.75) * np.sqrt(2.0) / np.sqrt(np.pi) / abs(math.gamma(-0.25))
    assert stable_coefficient(0.5, 1) == pytest.approx(want, rel=1e-14)
    for a in (0.1, 0.9, 1.5, 1.9):
        assert stable_coefficient(a, 1) > 0.0
        assert stable_coefficient(a, 3) > 0.0


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_evaluate_grid_stable_bound():
    grid = evaluate_grid(SymbolSpec(variant="stable", alpha=0.5), L=20.0, N=256)
    assert grid.max_abs < 1.0
    assert grid.values.shape == (256,)


def test_evaluate_grid_zero_modulator_gives_zero(mixed_atoms_data):
    mod = Modulator(phi=table_mod([0.0, 0.0, 0.0]))
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=mixed_atoms_data, mod=mod),
                         L=40.0, N=256)
    assert grid.max_abs == 0.0


def test_evaluate_grid_gaussian_limit_identity_is_one_off_origin():
    grid = evaluate_grid(SymbolSpec(variant="gaussian_limit", A=np.eye(2),
                                    K=np.eye(2)), L=20.0, N=64)
    vals = grid.values.ravel()
    origin = np.argmin(np.abs(vals))
    assert vals[origin] == 0.0          # stored convention at xi = 0
    rest = np.delete(vals, origin)
    assert np.max(np.abs(rest - 1.0)) < 1e-12


def test_evaluate_grid_records_argmax(single_atom_data):
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=single_atom_data),
                         L=40.0, N=512)
    xi = grid.argmax_xi[0]
    assert abs(symbol_q(single_atom_data, IDENTITY_MOD, [xi])) == \
        pytest.approx(grid.max_abs, rel=1e-12)


def test_evaluate_grid_rejects_nan_symbol():
    class OneNaN:
        variant = "preset"
        dim = 1

        def __call__(self, xi, on_degenerate="zero"):
            vals = np.zeros(np.atleast_2d(xi).shape[0], dtype=complex)
            vals[3] = np.nan
            return vals

    with pytest.raises(SymbolBoundViolation, match="not finite at xi"):
        evaluate_grid(OneNaN(), L=40.0, N=8)


@pytest.mark.parametrize("L,N,field", [(40.0, 6, "N"), (-20.0, 64, "L"),
                                        (0.0, 64, "L"), ((20.0, 40.0), 64, "L")])
def test_evaluate_grid_rejects_bad_box(L, N, field):
    with pytest.raises(ValueError, match=field):
        evaluate_grid(SymbolSpec(variant="stable", alpha=0.5), L=L, N=N)


def test_evaluate_grid_bound_violation_raises():
    class Doubler:
        variant = "preset"
        dim = 1

        def __call__(self, xi, on_degenerate="zero"):
            return np.full(np.atleast_2d(xi).shape[0], 2.0, dtype=complex)

    with pytest.raises(SymbolBoundViolation):
        evaluate_grid(Doubler(), L=10.0, N=64)


def test_symbol_q_with_b_equal_minus_a_matches_separate_exponents():
    """With B = -A the a and b rows coincide and symbol_q evaluates them once;
    the result matches psi and psi_tilde taken separately on all three rows."""
    data = make_data(AtomsMeasure([[0.6], [-1.7]], [0.9, 0.4]), A=[[1.3]], B=[[-1.3]])
    mod = Modulator(phi=sign_mod())
    xi = np.array([[-2.1], [-0.4], [0.3], [1.1], [3.7]])
    zb, za = xi @ data.B, -(xi @ data.A)
    assert np.array_equal(za, zb)
    ps = [psi(data, z) for z in (zb + za, zb, za)]
    pt = [psi_tilde(data, mod, z) for z in (zb + za, zb, za)]
    gap = ps[0] - ps[1] - ps[2]
    want = (pt[0] - pt[1] - pt[2]) * (np.exp(ps[0]) - np.exp(ps[1] + ps[2])) / gap
    got = symbol_q(data, mod, xi)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
