"""Fast invariant suite behind the `levymult selftest` command.

Each check returns (name, passed, detail).  The suite runs at reduced
scale (small grids, thousands of paths) so it finishes in about a
minute; the pytest acceptance module runs the full-scale versions.
"""

import numpy as np

from .levy import (
    AtomsMeasure,
    IDENTITY_MOD,
    Modulator,
    SphericalMeasure,
    StableMeasure,
    approximate,
    cross_form,
    drift_reduce,
    make_data,
    psi,
    psi_tilde,
    sign_mod,
    table_mod,
)
from .mc import (
    check_subordination,
    estimate_pairing,
    run_cpp_paths,
    mean_and_se,
    spectral_pairing_value,
    within_sigmas,
)
from .spectral import (
    apply_multiplier,
    gaussian_bump,
    lp_norm,
    norm_probe,
    pairing,
    semigroup_eval,
    transform_forward,
    transform_inverse,
)
from .symbols import (
    SymbolSpec,
    evaluate_grid,
    symbol_integral,
    symbol_limit,
    symbol_q,
    symbol_stable,
)


def _atoms_config():
    nu = AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4])
    data = make_data(nu, A=[[1.0]], B=[[-1.0]])
    mod = Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j]))
    return data, mod


def check_exponent_basics():
    data, mod = _atoms_config()
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(50, 1)) * 3.0
    ok = abs(psi(data, [0.0])) == 0.0 and abs(psi_tilde(data, mod, [0.0])) == 0.0
    vals = np.atleast_1d(psi(data, Z))
    conj = np.atleast_1d(psi(data, -Z))
    ok &= bool(np.max(np.abs(conj - vals.conj())) < 1e-12)
    ok &= bool(np.max(vals.real) <= 1e-15)
    return "exponent zero/conjugation/negativity", ok, f"max Re psi = {vals.real.max():.2e}"


def check_cross_identity():
    data, mod = _atoms_config()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        z1, z2 = rng.normal(size=2) * 2.0
        direct = cross_form(data, mod, [z1], [z2], route="direct")
        diff = (psi_tilde(data, mod, [z1 + z2]) - psi_tilde(data, mod, [z1])
                - psi_tilde(data, mod, [z2]))
        worst = max(worst, abs(direct - diff))
    return "cross-form identity (direct vs difference)", worst < 1e-10, f"worst {worst:.2e}"


def check_drift_reduce():
    data, _ = _atoms_config()
    reduced, h = drift_reduce(data)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        z = rng.normal() * 2.5
        lhs = psi(data, [z])
        rhs = psi(reduced, [z]) + 1j * z * h[0]
        worst = max(worst, abs(lhs - rhs))
    return "drift reduction reconstructs the exponent", worst < 1e-12, f"worst {worst:.2e}"


def check_eps_convergence():
    data = make_data(StableMeasure(0.5, 1), A=[[-1.0]], B=[[1.0]])
    mod = Modulator(phi=sign_mod())
    zs = np.array([[0.5], [1.0], [2.0]])
    errs = []
    for eps in (0.1, 0.01):
        d_eps, _ = approximate(data, mod, eps, zeta_max=4.0)
        errs.append(np.max(np.abs(np.atleast_1d(psi(d_eps, zs)) - np.atleast_1d(psi(data, zs)))))
    ok = errs[1] < errs[0] and errs[1] < 5e-3
    return "finite-activity exponent convergence", ok, f"errors {errs[0]:.2e} -> {errs[1]:.2e}"


def check_symbol_bound_and_equivalence():
    data, mod = _atoms_config()
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=data, mod=mod), L=40.0, N=512)
    rng = np.random.default_rng(3)
    xi = rng.normal(size=(200, 1)) * 5.0
    gap = np.max(np.abs(symbol_q(data, mod, xi) - symbol_integral(data, mod, xi)))
    ok = grid.max_abs <= 1.0 + 1e-9 and gap < 1e-10
    return "symbol bound + q/integral equivalence", ok, f"max|m| {grid.max_abs:.6f}, gap {gap:.2e}"


def check_symbol_symmetries():
    nu = AtomsMeasure([[1.0]], [1.0])
    data = make_data(nu, A=[[1.0]], B=[[1.0]])
    rng = np.random.default_rng(4)
    xi = rng.normal(size=(50, 1)) * 4.0
    herm = np.max(np.abs(symbol_q(data, IDENTITY_MOD, -xi)
                         - np.conj(symbol_q(data, IDENTITY_MOD, xi))))
    x = rng.normal(size=20) * 3.0
    odd = np.max(np.abs(symbol_stable(0.5, -x) + symbol_stable(0.5, x)))
    nonzero = np.min(np.abs(symbol_stable(0.5, x)))
    ok = herm < 1e-10 and odd < 1e-14 and nonzero > 0.0
    return "hermitian symmetry + stable antisymmetry", ok, f"herm {herm:.2e}, odd {odd:.2e}"


def check_u_limit():
    nu = AtomsMeasure([[1.0], [0.4]], [0.02, 0.012])
    mu = SphericalMeasure([[1.0]], [0.01])
    data = make_data(nu, mu=mu, A=[[1.0]], B=[[1.0]])
    mod = Modulator(phi=table_mod([0.6, -0.7j]), psi=table_mod([-0.5]))
    xi = [[0.7], [1.3]]
    lim = symbol_limit(data, mod, xi)
    errs = [float(np.max(np.abs(symbol_q(data, mod, xi, u=u) - lim)))
            for u in (1.0, 10.0, 100.0, 1000.0)]
    ok = all(errs[i + 1] <= errs[i] + 1e-14 for i in range(3)) and errs[-1] < 1e-6
    return "u-scaled symbol converges to the limit form", ok, f"errors {errs}"


def check_transforms():
    f = gaussian_bump(40.0, 1024, 1)
    fhat = transform_forward(f)
    xi = f.xi.ravel()
    err = np.max(np.abs(fhat - np.sqrt(2 * np.pi) * np.exp(-xi**2 / 2.0)))
    rt = np.max(np.abs(transform_inverse(fhat, f).values - f.values))
    ok = err < 1e-8 and rt < 1e-12
    return "transform pair (closed form + round trip)", ok, f"gaussian {err:.2e}, roundtrip {rt:.2e}"


def check_contraction_and_reality():
    data, mod = _atoms_config()
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=data, mod=mod), L=40.0, N=512)
    f = gaussian_bump(40.0, 512, 1, center=[0.4], width=0.8)
    mf = apply_multiplier(grid, f)
    ok = lp_norm(mf, 2.0) <= grid.max_abs * lp_norm(f, 2.0) * (1.0 + 1e-12)
    nu = AtomsMeasure([[1.0]], [1.0])
    data_h = make_data(nu, A=[[1.0]], B=[[1.0]])
    grid_h = evaluate_grid(SymbolSpec(variant="q_form", data=data_h), L=40.0, N=512)
    fr = gaussian_bump(40.0, 512, 1, center=[-0.2], width=1.1)
    mfr = apply_multiplier(grid_h, fr)
    imag = np.max(np.abs(mfr.values.imag))
    ok &= imag < 1e-10
    return "p=2 contraction + real-output reality", ok, f"imag residue {imag:.2e}"


def check_semigroup():
    nu = AtomsMeasure([[1.0]], [1.0])
    data = make_data(nu, A=[[1.0]], B=[[1.0]])
    f = gaussian_bump(40.0, 1024, 1)
    x = np.array([0.1357])
    direct = semigroup_eval(f, data.A, data, 0.7, x)
    half = semigroup_eval(f, data.A, data, 0.3, x)
    from .spectral import semigroup_multiplier
    pt = apply_multiplier(semigroup_multiplier(data, data.A, f, 0.4), f)
    comp = semigroup_eval(pt, data.A, data, 0.3, x)
    ok = abs(direct - comp) < 1e-10 and abs(semigroup_eval(f, data.A, data, 0.0, x)
                                            - f_exact(x[0])) < 1e-8
    return "semigroup additivity + s=0 recovery", ok, f"gap {abs(direct - comp):.2e}"


def f_exact(x):
    return np.exp(-x**2 / 2.0)


def check_probe_p2():
    nu = AtomsMeasure([[1.0]], [1.0])
    data = make_data(nu, A=[[1.0]], B=[[1.0]])
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=data), L=40.0, N=512)
    rep = norm_probe(grid, 2.0, trials=60, seed=5, ascent_steps=40)
    ok = rep.passed and rep.best_ratio <= grid.max_abs * (1.0 + 1e-9)
    return "norm probe at p=2 bounded by max |m|", ok, f"best {rep.best_ratio:.6f}"


def check_martingales():
    data, mod = _atoms_config()
    f = gaussian_bump(40.0, 512, 1, center=[0.5], width=0.9)
    g = gaussian_bump(40.0, 512, 1, center=[-0.3], width=1.1)
    stats = run_cpp_paths(f, g, data, mod, 3000, 99)
    f0 = stats["meta"]["f0_x0"]
    mF, sF = mean_and_se(stats["f1_x0"] - f0)
    mG, sG = mean_and_se(stats["g1_x0"])
    ok = within_sigmas(mF, sF, 0.0, 3.5) and within_sigmas(mG, sG, 0.0, 3.5)
    return "martingale means (F1 - F0 and G1)", ok, f"F {mF:.1e}, G {mG:.1e}"


def check_subordination_bulk():
    nu = AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4])
    data = make_data(nu, A=[[1.0]], B=[[1.0]])
    mod = Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j]))
    g = gaussian_bump(40.0, 512, 1, center=[-0.3], width=1.1)
    violating, _, worst = check_subordination(g, g, data, mod, 200, 31, [0.3])
    return "differential subordination (200 paths)", violating == 0, f"worst violation {worst:.2e}"


def check_mc_pairing():
    data, mod = _atoms_config()
    f = gaussian_bump(40.0, 512, 1, center=[0.5], width=0.9)
    g = gaussian_bump(40.0, 512, 1, center=[-0.3], width=1.1)
    est = estimate_pairing(f, g, data, mod, 8000, 2024)
    ref = spectral_pairing_value(f, g, data, mod)
    ok = est.agrees_with(ref, 3.5) and est.routes_agree(3.5)
    return "MC pairing vs spectral + route agreement", ok, \
        f"MC {est.estimate:.5f}, spectral {ref:.5f}"


def check_lp_isometry():
    data, mod = _atoms_config()
    f = gaussian_bump(40.0, 512, 1, center=[0.2], width=0.9)
    stats = run_cpp_paths(f, f, data, IDENTITY_MOD, 4000, 7, fend_powers=(2.0,))
    target = lp_norm(f, 2.0) ** 2.0
    m, s = mean_and_se(stats["fend_pow"][2.0])
    ok = abs(m - target) <= 3.5 * max(s, 1e-12)
    return "endpoint L^p isometry (p=2, 4000 paths)", ok, f"{m:.5f} vs {target:.5f}"


ALL_CHECKS = [
    check_exponent_basics,
    check_cross_identity,
    check_drift_reduce,
    check_eps_convergence,
    check_symbol_bound_and_equivalence,
    check_symbol_symmetries,
    check_u_limit,
    check_transforms,
    check_contraction_and_reality,
    check_semigroup,
    check_probe_p2,
    check_martingales,
    check_subordination_bulk,
    check_mc_pairing,
    check_lp_isometry,
]


def run_all(verbose_print=print):
    """Run every invariant check; returns True iff all pass."""
    all_ok = True
    for fn in ALL_CHECKS:
        name, ok, detail = fn()
        all_ok &= ok
        verbose_print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
