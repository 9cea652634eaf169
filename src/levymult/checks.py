"""The ten acceptance criteria, each written once and run at a chosen scale.

A criterion's integer divisor divides only its path counts, probe trials and
ascent steps, not its configurations, seeds or tolerances: 1 is the acceptance
scale of the test suite, and `levymult selftest` runs a smaller one.  The
stable-symbol sign follows the construction (gamma arithmetic, radial
quadrature and the Monte-Carlo pairing agree on it), not the published
display, which is inconsistent by a factor -sgn(xi).  Nothing is built at import.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from .levy import (AtomsMeasure, IDENTITY_MOD, Modulator, SphericalMeasure, StableMeasure,
                   approximate, make_data, sign_mod, table_mod)
from .mc import (brownian_pairing, check_subordination, estimate_pairing,
                 gaussian_spectral_value, mean_and_se, run_cpp_paths,
                 spectral_pairing_value, within_sigmas)
from .spectral import gaussian_bump, lp_norm, norm_probe
from .symbols import (SymbolSpec, evaluate_grid, riesz_matrix, symbol_gaussian_limit,
                      symbol_integral, symbol_limit, symbol_q, symbol_stable)


@dataclass(frozen=True)
class CheckRecord:
    """One criterion's outcome; `seed` is its first seed, None if it draws none."""

    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float
    seed: int = None

    @property
    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.criterion}: {self.detail}"


CRITERIA = []   # in criterion order, filled once by @_criterion at import


def _criterion(number: int, name: str, seed: int = None):
    """Register body(divisor, seed) -> (passed, detail) as criterion `number`,
    called with a divisor (default 1) and returning the timed CheckRecord."""
    def register(body):
        @functools.wraps(body)
        def run(divisor: int = 1) -> CheckRecord:
            t0 = time.perf_counter()
            passed, detail = body(divisor, seed)
            return CheckRecord(number, name, bool(passed), detail,
                               time.perf_counter() - t0, seed)
        CRITERIA.append(run)
        return run
    return register


def _single_atom():
    return make_data(AtomsMeasure([[1.0]], [1.0]), A=[[1.0]], B=[[1.0]])


def _three_atoms(B=-1.0):
    """Three atoms, one inside the unit ball (nonzero net drift), and a complex phi."""
    return (make_data(AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4]), A=[[1.0]], B=[[B]]),
            Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j])))


def _stable_gaps(xis, epss, zeta_max):
    """|eps-surrogate symbol - stable closed form| at rows xis, one array per
    eps, for alpha = 1/2, A = -B and the sign weight; and the closed form."""
    data = make_data(StableMeasure(0.5, 1), A=[[-1.0]], B=[[1.0]])
    mod = Modulator(phi=sign_mod())
    ref = symbol_stable(0.5, xis[:, 0])
    return [np.abs(symbol_q(*approximate(data, mod, eps, zeta_max=zeta_max), xis) - ref)
            for eps in epss], ref


def _atoms_config_matrix():
    """(name, data, mod) of finite-activity configurations spanning A != B,
    complex phi, multi-atom measures, drift, n = 2, and a sphere-part surrogate."""
    sphere = make_data(AtomsMeasure([[1.2]], [0.8]), mu=SphericalMeasure([[1.0]], [0.045]),
                       A=[[1.0]], B=[[-1.0]])
    surrogate = approximate(sphere, Modulator(phi=table_mod([0.8j]), psi=table_mod([-0.9])), 0.3)
    return [
        ("single-atom phi=1 A=B", _single_atom(), IDENTITY_MOD),
        ("two-atom A=-B complex phi",
         make_data(AtomsMeasure([[1.0], [-2.0]], [0.7, 0.3]), A=[[1.0]], B=[[-1.0]]),
         Modulator(phi=table_mod([0.5, -0.8j]))),
        ("three-atom compensated", *_three_atoms()),
        ("equal maps complex phi",
         make_data(AtomsMeasure([[1.0], [-0.7]], [0.6, 0.9]), A=[[1.0]], B=[[1.0]]),
         Modulator(phi=table_mod([0.9j, -0.6]))),
        ("n=2 projections",
         make_data(AtomsMeasure([[1.0, 0.5], [-0.8, 1.2]], [0.8, 0.6]),
                   A=[[1.0, 0.0]], B=[[0.3, 1.0]], d=1, n=2),
         Modulator(phi=table_mod([0.9, -0.6j]))),
        ("drifted unequal maps",
         make_data(AtomsMeasure([[1.3], [-0.9]], [0.5, 0.8]), gamma=[0.6], A=[[1.0]], B=[[-1.0]]),
         Modulator(phi=table_mod([0.7, 0.5j]))),
        ("sphere surrogate", *surrogate),
    ]


@_criterion(1, "symbol bound")
def criterion_1_symbol_bound(divisor, seed):
    """Every symbol variant on its default grid has max |m| <= 1 + 1e-9."""
    atoms, mod = _three_atoms()
    limit_data = make_data(AtomsMeasure([[1.0], [0.4]], [0.8, 0.5]),
                           mu=SphericalMeasure([[1.0]], [0.6]), A=[[1.0]], B=[[1.0]])
    limit_mod = Modulator(phi=table_mod([0.6, -0.7j]), psi=table_mod([-0.5]))
    specs = [
        ("q_form", SymbolSpec(variant="q_form", data=atoms, mod=mod)),
        ("integral_form", SymbolSpec(variant="integral_form", data=atoms, mod=mod)),
        ("limit_form", SymbolSpec(variant="limit_form", data=limit_data, mod=limit_mod)),
        ("gaussian", SymbolSpec(variant="gaussian", A=[[1.0]], B=[[-0.8]], K=[[0.9j]])),
        ("gaussian_limit",
         SymbolSpec(variant="gaussian_limit", A=np.eye(2), K=riesz_matrix(0, 1, 2))),
        ("stable", SymbolSpec(variant="stable", alpha=0.5)),
        ("preset-log", SymbolSpec(variant="preset", preset="log", d=2, j=0)),
        ("preset-riesz", SymbolSpec(variant="preset", preset="riesz", d=2)),
    ]
    details, ok = [], True
    for name, spec in specs:
        t0 = time.time()
        grid = evaluate_grid(spec)          # raises if the bound is violated
        dt = time.time() - t0
        ok &= grid.max_abs <= 1.0 + 1e-9 and dt < 5.0
        details.append(f"{name}: max|m|={grid.max_abs:.9f} ({dt:.2f}s)")
    return ok, "; ".join(details)


@_criterion(2, "formula equivalence", seed=2024)
def criterion_2_formula_equivalence(divisor, seed):
    """q-form vs direct-integral ratio form to 1e-10 on 200 random xi."""
    configs = [
        (_single_atom(), IDENTITY_MOD),
        _three_atoms(),
        (make_data(AtomsMeasure([[0.8], [1.7]], [0.6, 0.9]), mu=SphericalMeasure([[1.0]], [0.4]),
                   gamma=[0.3], A=[[2.0]], B=[[0.5]]),
         Modulator(phi=table_mod([0.9j, -0.4]), psi=table_mod([0.8]))),
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for data, mod in configs:
        xi = rng.normal(size=(200, 1)) * 4.0
        gap = np.max(np.abs(symbol_q(data, mod, xi) - symbol_integral(data, mod, xi)))
        worst = max(worst, float(gap))
    return worst < 1e-10, f"worst |q-form - integral-form| = {worst:.3e} over 3 configs x 200 xi"


@_criterion(3, "stable closed form")
def criterion_3_stable_closed_form(divisor, seed):
    """Finite-activity symbol converges to the stable closed form."""
    t0 = time.time()
    gaps, ref = _stable_gaps(np.array([[0.25], [0.5], [1.0], [2.0]]), (0.1, 0.01, 0.001), 4.5)
    errs = [gap / np.abs(ref) for gap in gaps]
    dt = time.time() - t0
    decreasing = bool(np.all(errs[1] < errs[0]) and np.all(errs[2] < errs[1]))
    ok = decreasing and bool(np.all(errs[2] < 1e-2)) and dt < 60.0
    shown = ", ".join(f"{e:.2e}" for e in errs[2])
    return ok, (f"rel errs at eps=1e-3: [{shown}] (< 1e-2), decreasing "
                f"{decreasing}, {dt:.1f}s")


@_criterion(4, "alpha-one limit")
def criterion_4_alpha_one_limit(divisor, seed):
    """Near alpha = 1 the tan form sits within 5e-3 of the limit form."""
    worst = 0.0
    for xi in (0.5, 1.0, 2.0):
        limit = -(4.0 * np.log(2.0) / np.pi) * 1j * xi * np.exp(-2.0 * abs(xi))
        for alpha in (1.0 - 1e-3, 1.0 + 1e-3):
            rel = abs(symbol_stable(alpha, xi) - limit) / abs(limit)
            worst = max(worst, rel)
    return worst < 5e-3, f"worst relative gap {worst:.2e} at alpha = 1 +- 1e-3"


@_criterion(5, "norm-bound probing", seed=2025)
def criterion_5_norm_bound_probing(divisor, seed):
    """Lower-bound ratios never exceed (p*-1)(1 + 5e-3); 500 trials of 200
    ascent steps per p at divisor 1."""
    grids = [
        ("phi=1 single-atom", evaluate_grid(SymbolSpec(variant="q_form", data=_single_atom()))),
        ("stable a=1/2", evaluate_grid(SymbolSpec(variant="stable", alpha=0.5))),
        ("gaussian K=I",
         evaluate_grid(SymbolSpec(variant="gaussian", A=[[1.0]], B=[[1.0]], K=[[1.0]]))),
        ("riesz", evaluate_grid(SymbolSpec(variant="preset", preset="riesz", d=2))),
    ]
    lines, ok = [], True
    t0 = time.time()
    for name, grid in grids:
        worst_margin = 0.0
        for rep in norm_probe(grid, (1.25, 1.5, 2.0, 3.0, 4.0), trials=500 // divisor,
                              seed=seed, ascent_steps=200 // divisor):
            ok &= rep.passed
            worst_margin = max(worst_margin, rep.best_ratio / rep.bound)
        lines.append(f"{name}: max ratio/bound {worst_margin:.4f}")
    return ok, "; ".join(lines) + f" ({time.time() - t0:.0f}s)"


@_criterion(6, "MC-spectral pairing", seed=404)
def criterion_6_mc_spectral_pairing(divisor, seed):
    """MC pairing matches the spectral pairing within 3 joint standard
    errors on the full configuration matrix; 2e5 paths at divisor 1, the
    k-th configuration at seed + k."""
    f = gaussian_bump(40.0, 1024, 1, center=[0.5], width=0.9)
    g = gaussian_bump(40.0, 1024, 1, center=[-0.3], width=1.1)
    lines, ok = [], True
    t0 = time.time()
    for k, (name, data, mod) in enumerate(_atoms_config_matrix()):
        est = estimate_pairing(f, g, data, mod, 200000 // divisor, seed + k)
        ref = spectral_pairing_value(f, g, data, mod)
        routes = est.routes_agree(3.0)
        ok &= est.agrees_with(ref, 3.0) and routes
        floor = 1e-9 * max(abs(est.estimate), abs(ref))  # roundoff components
        sig_r = abs(est.estimate.real - ref.real) / max(est.stderr.real, floor)
        sig_i = abs(est.estimate.imag - ref.imag) / max(est.stderr.imag, floor)
        lines.append(f"{name}: {max(sig_r, sig_i):.2f} sigma"
                     f"{'' if routes else ' [routes differ]'}")
    return ok, "; ".join(lines) + f" ({time.time() - t0:.0f}s)"


@_criterion(7, "differential subordination", seed=777)
def criterion_7_differential_subordination(divisor, seed):
    """Zero per-jump violations with A = B and |phi| <= 1; 1e4 paths at
    divisor 1."""
    data, _ = _three_atoms(B=1.0)
    rng = np.random.default_rng(7)
    phis = rng.uniform(0.2, 1.0, size=3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    mod = Modulator(phi=table_mod(phis))
    g = gaussian_bump(40.0, 512, 1, center=[-0.3], width=1.1)
    paths = 10000 // divisor
    t0 = time.time()
    violations, jumps, _ = check_subordination(g, g, data, mod, paths, seed, [0.3])
    dt = time.time() - t0
    return violations == 0 and dt < 60.0, \
        f"{violations} violations across {paths} paths / {jumps} jumps ({dt:.0f}s)"


@_criterion(8, "L^p isometry", seed=888)
def criterion_8_lp_isometry(divisor, seed):
    """Box average of E|F_1|^p equals ||f||_p^p within 3 standard errors
    (the integral is translation-invariant, so a roundoff floor applies);
    1e5 paths at divisor 1."""
    data, _ = _three_atoms()
    f = gaussian_bump(40.0, 1024, 1, center=[0.5], width=0.9)
    t0 = time.time()
    stats = run_cpp_paths(f, f, data, IDENTITY_MOD, 100000 // divisor, seed,
                          fend_powers=(1.5, 2.0, 3.0))
    lines, ok = [], True
    for p in (1.5, 2.0, 3.0):
        m, se = mean_and_se(stats["fend_pow"][p])
        target = lp_norm(f, p) ** p
        ok &= abs(m - target) <= 3.0 * se + 1e-12 * target
        lines.append(f"p={p}: {m:.8f} vs {target:.8f}")
    return ok, "; ".join(lines) + f" ({time.time() - t0:.0f}s)"


@_criterion(9, "Gaussian branch", seed=31)
def criterion_9_gaussian_branch(divisor, seed):
    """Brownian MC matches the derivation-scale spectral pairing within 3
    joint standard errors (8000 paths at divisor 1, the second K at
    seed + 1), and the Gaussian limit reproduces the Riesz symbol exactly."""
    f = gaussian_bump(40.0, 1024, 1, center=[0.4], width=0.9)
    g = gaussian_bump(40.0, 1024, 1, center=[-0.2], width=1.0)
    lines, ok = [], True
    t0 = time.time()
    for k, Kval in enumerate((np.array([[1.0]]), np.array([[0.7j]]))):
        est = brownian_pairing(f, g, [[1.0]], [[1.0]], Kval, 8000 // divisor, 2000,
                               seed + k, var_scale=0.5, richardson=True)
        ref = gaussian_spectral_value(f, g, [[1.0]], [[1.0]], Kval, var_scale=0.5)
        ok &= within_sigmas(est.estimate, est.stderr, ref, 3.0)
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
    return ok, "; ".join(lines) + f" ({time.time() - t0:.0f}s)"


@_criterion(10, "eps and u limits")
def criterion_10_eps_and_u_limits(divisor, seed):
    """Pointwise eps-convergence of the surrogate symbol and monotone
    u-scaling convergence to the limit form."""
    t0 = time.time()
    gaps, _ = _stable_gaps(np.array([[0.5], [1.0]]), (0.1, 0.02), 3.0)
    eps_errs = [float(np.max(gap)) for gap in gaps]
    eps_ok = eps_errs[1] < eps_errs[0] and eps_errs[1] < 2e-2
    datau = make_data(AtomsMeasure([[1.0], [0.4]], [0.02, 0.012]),
                      mu=SphericalMeasure([[1.0]], [0.01]), A=[[1.0]], B=[[1.0]])
    modu = Modulator(phi=table_mod([0.6, -0.7j]), psi=table_mod([-0.5]))
    xi = [[0.7], [1.3], [2.2]]
    lim = symbol_limit(datau, modu, xi)
    u_errs = [float(np.max(np.abs(symbol_q(datau, modu, xi, u=u) - lim)))
              for u in (1.0, 10.0, 100.0, 1000.0)]
    u_ok = all(u_errs[i + 1] <= u_errs[i] + 1e-14 for i in range(3)) \
        and u_errs[-1] < 1e-6
    dt = time.time() - t0
    return eps_ok and u_ok and dt < 60.0, \
        (f"eps errs {eps_errs[0]:.2e} -> {eps_errs[1]:.2e}; "
         f"u errs {['%.2e' % e for e in u_errs]} ({dt:.0f}s)")

