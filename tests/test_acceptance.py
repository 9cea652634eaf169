"""Acceptance criteria, one test per criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Tolerances are pinned here from the build contract; the
stable-symbol sign follows the construction (gamma arithmetic, radial
quadrature, and the Monte-Carlo pairing agree on it) rather than the
published display, which is internally inconsistent by a factor -sgn(xi).
"""

import sys
import time

import numpy as np

from levymult import (
    AtomsMeasure,
    IDENTITY_MOD,
    Modulator,
    SphericalMeasure,
    StableMeasure,
    SymbolSpec,
    approximate,
    brownian_pairing,
    check_subordination,
    estimate_pairing,
    evaluate_grid,
    gaussian_bump,
    gaussian_spectral_value,
    lp_norm,
    make_data,
    norm_probe,
    riesz_matrix,
    run_cpp_paths,
    sign_mod,
    spectral_pairing_value,
    symbol_gaussian_limit,
    symbol_integral,
    symbol_limit,
    symbol_q,
    symbol_stable,
    table_mod,
    within_sigmas,
)
from levymult.mc import mean_and_se


RESULT_LINES = []


def _report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    RESULT_LINES.append((criterion, line))
    print("\n" + line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _atoms_config_matrix():
    """Six-plus finite-activity configurations spanning A != B, complex
    phi, multi-atom measures, drift, n = 2, and a sphere-part surrogate."""
    cfgs = []
    # 1: the single-atom identity-weight reference
    cfgs.append(("single-atom phi=1 A=B",
                 make_data(AtomsMeasure([[1.0]], [1.0]), A=[[1.0]], B=[[1.0]]),
                 IDENTITY_MOD, 404))
    # 2: two atoms, opposite maps, complex per-atom weights
    cfgs.append(("two-atom A=-B complex phi",
                 make_data(AtomsMeasure([[1.0], [-2.0]], [0.7, 0.3]),
                           A=[[1.0]], B=[[-1.0]]),
                 Modulator(phi=table_mod([0.5, -0.8j])), 405))
    # 3: three atoms incl. one inside the unit ball (nonzero net drift)
    cfgs.append(("three-atom compensated",
                 make_data(AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4]),
                           A=[[1.0]], B=[[-1.0]]),
                 Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j])), 406))
    # 4: equal maps with complex phi
    cfgs.append(("equal maps complex phi",
                 make_data(AtomsMeasure([[1.0], [-0.7]], [0.6, 0.9]),
                           A=[[1.0]], B=[[1.0]]),
                 Modulator(phi=table_mod([0.9j, -0.6])), 407))
    # 5: two-dimensional jump space feeding a one-dimensional output
    cfgs.append(("n=2 projections",
                 make_data(AtomsMeasure([[1.0, 0.5], [-0.8, 1.2]], [0.8, 0.6]),
                           A=[[1.0, 0.0]], B=[[0.3, 1.0]], d=1, n=2),
                 Modulator(phi=table_mod([0.9, -0.6j])), 408))
    # 6: explicit drift vector with unequal maps
    cfgs.append(("drifted unequal maps",
                 make_data(AtomsMeasure([[1.3], [-0.9]], [0.5, 0.8]),
                           gamma=[0.6], A=[[1.0]], B=[[-1.0]]),
                 Modulator(phi=table_mod([0.7, 0.5j])), 409))
    # 7: sphere measure routed through the finite-activity surrogate
    mu = SphericalMeasure([[1.0]], [0.045])
    base = make_data(AtomsMeasure([[1.2]], [0.8]), mu=mu, A=[[1.0]], B=[[-1.0]])
    mod = Modulator(phi=table_mod([0.8j]), psi=table_mod([-0.9]))
    surr, surr_mod = approximate(base, mod, 0.3)
    cfgs.append(("sphere surrogate", surr, surr_mod, 410))
    return cfgs


def test_criterion_1_symbol_bound():
    """Every symbol variant on its default grid has max |m| <= 1 + 1e-9."""
    atoms = make_data(AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4]),
                      A=[[1.0]], B=[[-1.0]])
    mod = Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j]))
    limit_data = make_data(AtomsMeasure([[1.0], [0.4]], [0.8, 0.5]),
                           mu=SphericalMeasure([[1.0]], [0.6]),
                           A=[[1.0]], B=[[1.0]])
    limit_mod = Modulator(phi=table_mod([0.6, -0.7j]), psi=table_mod([-0.5]))
    specs = [
        ("q_form", SymbolSpec(variant="q_form", data=atoms, mod=mod)),
        ("integral_form", SymbolSpec(variant="integral_form", data=atoms, mod=mod)),
        ("limit_form", SymbolSpec(variant="limit_form", data=limit_data,
                                  mod=limit_mod)),
        ("gaussian", SymbolSpec(variant="gaussian", A=[[1.0]], B=[[-0.8]],
                                K=[[0.9j]])),
        ("gaussian_limit", SymbolSpec(variant="gaussian_limit", A=np.eye(2),
                                      K=riesz_matrix(0, 1, 2))),
        ("stable", SymbolSpec(variant="stable", alpha=0.5)),
        ("preset-log", SymbolSpec(variant="preset", preset="log", d=2, j=0)),
        ("preset-riesz", SymbolSpec(variant="preset", preset="riesz", d=2)),
    ]
    details = []
    ok = True
    for name, spec in specs:
        t0 = time.time()
        grid = evaluate_grid(spec)          # raises if the bound is violated
        dt = time.time() - t0
        ok &= grid.max_abs <= 1.0 + 1e-9 and dt < 5.0
        details.append(f"{name}: max|m|={grid.max_abs:.9f} ({dt:.2f}s)")
    _report(1, ok, "; ".join(details))


def test_criterion_2_formula_equivalence():
    """q-form vs direct-integral ratio form to 1e-10 on 200 random xi."""
    configs = [
        (make_data(AtomsMeasure([[1.0]], [1.0]), A=[[1.0]], B=[[1.0]]),
         IDENTITY_MOD),
        (make_data(AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4]),
                   A=[[1.0]], B=[[-1.0]]),
         Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j]))),
        (make_data(AtomsMeasure([[0.8], [1.7]], [0.6, 0.9]),
                   mu=SphericalMeasure([[1.0]], [0.4]), gamma=[0.3],
                   A=[[2.0]], B=[[0.5]]),
         Modulator(phi=table_mod([0.9j, -0.4]), psi=table_mod([0.8]))),
    ]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for data, mod in configs:
        xi = rng.normal(size=(200, 1)) * 4.0
        gap = np.max(np.abs(symbol_q(data, mod, xi) - symbol_integral(data, mod, xi)))
        worst = max(worst, float(gap))
    _report(2, worst < 1e-10, f"worst |q-form - integral-form| = {worst:.3e} "
            f"over 3 configs x 200 xi")


def test_criterion_3_stable_closed_form():
    """Finite-activity symbol converges to the stable closed form."""
    data = make_data(StableMeasure(0.5, 1), A=[[-1.0]], B=[[1.0]])
    mod = Modulator(phi=sign_mod())
    xis = np.array([[0.25], [0.5], [1.0], [2.0]])
    ref = symbol_stable(0.5, xis[:, 0])
    t0 = time.time()
    errs = []
    for eps in (0.1, 0.01, 0.001):
        d_eps, m_eps = approximate(data, mod, eps, zeta_max=4.5)
        errs.append(np.abs(symbol_q(d_eps, m_eps, xis) - ref) / np.abs(ref))
    dt = time.time() - t0
    decreasing = bool(np.all(errs[1] < errs[0]) and np.all(errs[2] < errs[1]))
    ok = decreasing and bool(np.all(errs[2] < 1e-2)) and dt < 60.0
    shown = ", ".join(f"{e:.2e}" for e in errs[2])
    _report(3, ok, f"rel errs at eps=1e-3: [{shown}] (< 1e-2), decreasing "
            f"{decreasing}, {dt:.1f}s")


def test_criterion_4_alpha_one_limit():
    """Near alpha = 1 the tan form sits within 5e-3 of the limit form."""
    worst = 0.0
    for xi in (0.5, 1.0, 2.0):
        limit = -(4.0 * np.log(2.0) / np.pi) * 1j * xi * np.exp(-2.0 * abs(xi))
        for alpha in (1.0 - 1e-3, 1.0 + 1e-3):
            rel = abs(symbol_stable(alpha, xi) - limit) / abs(limit)
            worst = max(worst, rel)
    _report(4, worst < 5e-3, f"worst relative gap {worst:.2e} at alpha = 1 +- 1e-3")


def test_criterion_5_norm_bound_probing():
    """Lower-bound ratios never exceed (p*-1)(1 + 5e-3), >= 500 trials."""
    atoms = make_data(AtomsMeasure([[1.0]], [1.0]), A=[[1.0]], B=[[1.0]])
    grids = [
        ("phi=1 single-atom", evaluate_grid(SymbolSpec(variant="q_form", data=atoms))),
        ("stable a=1/2", evaluate_grid(SymbolSpec(variant="stable", alpha=0.5))),
        ("gaussian K=I", evaluate_grid(SymbolSpec(variant="gaussian", A=[[1.0]],
                                                  B=[[1.0]], K=[[1.0]]))),
        ("riesz", evaluate_grid(SymbolSpec(variant="preset", preset="riesz", d=2))),
    ]
    lines = []
    ok = True
    t0 = time.time()
    for name, grid in grids:
        worst_margin = 0.0
        for p in (1.25, 1.5, 2.0, 3.0, 4.0):
            rep = norm_probe(grid, p, trials=500, seed=2025, ascent_steps=200)
            ok &= rep.passed
            worst_margin = max(worst_margin, rep.best_ratio / rep.bound)
        lines.append(f"{name}: max ratio/bound {worst_margin:.4f}")
    _report(5, ok, "; ".join(lines) + f" ({time.time() - t0:.0f}s)")


def test_criterion_6_mc_spectral_pairing():
    """MC pairing matches the spectral pairing within 3 joint standard
    errors on the full configuration matrix at 2e5 paths."""
    f = gaussian_bump(40.0, 1024, 1, center=[0.5], width=0.9)
    g = gaussian_bump(40.0, 1024, 1, center=[-0.3], width=1.1)
    lines = []
    ok = True
    t0 = time.time()
    for name, data, mod, seed in _atoms_config_matrix():
        est = estimate_pairing(f, g, data, mod, 200000, seed)
        ref = spectral_pairing_value(f, g, data, mod)
        agree = est.agrees_with(ref, 3.0)
        routes = est.routes_agree(3.0)
        ok &= agree and routes
        floor = 1e-9 * max(abs(est.estimate), abs(ref))  # roundoff components
        sig_r = abs(est.estimate.real - ref.real) / max(est.stderr.real, floor)
        sig_i = abs(est.estimate.imag - ref.imag) / max(est.stderr.imag, floor)
        lines.append(f"{name}: {max(sig_r, sig_i):.2f} sigma"
                     f"{'' if routes else ' [routes differ]'}")
    _report(6, ok, "; ".join(lines) + f" ({time.time() - t0:.0f}s)")


def test_criterion_7_differential_subordination():
    """Zero per-jump violations over 1e4 paths with A = B and |phi| <= 1."""
    nu = AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4])
    data = make_data(nu, A=[[1.0]], B=[[1.0]])
    rng = np.random.default_rng(7)
    phis = rng.uniform(0.2, 1.0, size=3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    mod = Modulator(phi=table_mod(phis))
    g = gaussian_bump(40.0, 512, 1, center=[-0.3], width=1.1)
    t0 = time.time()
    violations, jumps, _ = check_subordination(g, g, data, mod, 10000, 777, [0.3])
    dt = time.time() - t0
    _report(7, violations == 0 and dt < 60.0,
            f"{violations} violations across 10000 paths / {jumps} jumps ({dt:.0f}s)")


def test_criterion_8_lp_isometry():
    """Box average of E|F_1|^p equals ||f||_p^p within 3 standard errors
    (the integral is translation-invariant, so a roundoff floor applies)."""
    data = make_data(AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4]),
                     A=[[1.0]], B=[[-1.0]])
    f = gaussian_bump(40.0, 1024, 1, center=[0.5], width=0.9)
    t0 = time.time()
    stats = run_cpp_paths(f, f, data, IDENTITY_MOD, 100000, 888,
                          fend_powers=(1.5, 2.0, 3.0))
    lines = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        m, se = mean_and_se(stats["fend_pow"][p])
        target = lp_norm(f, p) ** p
        good = abs(m - target) <= 3.0 * se + 1e-12 * target
        ok &= good
        lines.append(f"p={p}: {m:.8f} vs {target:.8f}")
    _report(8, ok, "; ".join(lines) + f" ({time.time() - t0:.0f}s)")


def test_criterion_9_gaussian_branch():
    """Brownian MC matches the derivation-scale spectral pairing within 3
    joint standard errors, and the Gaussian limit reproduces the Riesz
    symbol exactly."""
    f = gaussian_bump(40.0, 1024, 1, center=[0.4], width=0.9)
    g = gaussian_bump(40.0, 1024, 1, center=[-0.2], width=1.0)
    lines = []
    ok = True
    t0 = time.time()
    for Kval, seed in ((np.array([[1.0]]), 31), (np.array([[0.7j]]), 32)):
        est = brownian_pairing(f, g, [[1.0]], [[1.0]], Kval, 8000, 2000, seed,
                               var_scale=0.5, richardson=True)
        ref = gaussian_spectral_value(f, g, [[1.0]], [[1.0]], Kval, var_scale=0.5)
        good = within_sigmas(est.estimate, est.stderr, ref, 3.0)
        ok &= good
        sig = abs(est.estimate - ref) / max(abs(est.stderr), 1e-300)
        lines.append(f"K={Kval.ravel()[0]}: {sig:.2f} sigma")

    K = riesz_matrix(0, 1, 2)
    rng = np.random.default_rng(5)
    exact = True
    for _ in range(50):
        xi = rng.normal(size=2) * 4.0
        want = -2.0 * xi[0] * xi[1] / (xi @ xi)
        exact &= abs(symbol_gaussian_limit(np.eye(2), K, xi) - want) < 1e-14
    ok &= exact
    lines.append(f"riesz limit exact: {exact}")
    _report(9, ok, "; ".join(lines) + f" ({time.time() - t0:.0f}s)")


def test_criterion_10_eps_and_u_limits():
    """Pointwise eps-convergence of the surrogate symbol and monotone
    u-scaling convergence to the limit form."""
    t0 = time.time()
    data = make_data(StableMeasure(0.5, 1), A=[[-1.0]], B=[[1.0]])
    mod = Modulator(phi=sign_mod())
    xis = np.array([[0.5], [1.0]])
    ref = symbol_stable(0.5, xis[:, 0])
    eps_errs = []
    for eps in (0.1, 0.02):
        d_eps, m_eps = approximate(data, mod, eps, zeta_max=3.0)
        eps_errs.append(float(np.max(np.abs(symbol_q(d_eps, m_eps, xis) - ref))))
    eps_ok = eps_errs[1] < eps_errs[0] and eps_errs[1] < 2e-2

    nu = AtomsMeasure([[1.0], [0.4]], [0.02, 0.012])
    mu = SphericalMeasure([[1.0]], [0.01])
    datau = make_data(nu, mu=mu, A=[[1.0]], B=[[1.0]])
    modu = Modulator(phi=table_mod([0.6, -0.7j]), psi=table_mod([-0.5]))
    xi = [[0.7], [1.3], [2.2]]
    lim = symbol_limit(datau, modu, xi)
    u_errs = [float(np.max(np.abs(symbol_q(datau, modu, xi, u=u) - lim)))
              for u in (1.0, 10.0, 100.0, 1000.0)]
    u_ok = all(u_errs[i + 1] <= u_errs[i] + 1e-14 for i in range(3)) \
        and u_errs[-1] < 1e-6
    dt = time.time() - t0
    _report(10, eps_ok and u_ok and dt < 60.0,
            f"eps errs {eps_errs[0]:.2e} -> {eps_errs[1]:.2e}; "
            f"u errs {['%.2e' % e for e in u_errs]} ({dt:.0f}s)")
