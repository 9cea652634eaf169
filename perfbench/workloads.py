"""One benchmark workload in one process: set up, run whole rounds, report.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py --workload NAME --seed N --setup-only

`run.py` starts this script; it prints one JSON object as its last line.
Every round runs the same list of operations, with inputs drawn from
(seed, round index).  An operation fails when the library raises, exits
nonzero, or returns a value that is not finite; it is wrong when it
returns finite values that the benchmark's own references reject.

Monte-Carlo checks use a band of K_SIGMA standard errors per real
component.  Under a normal approximation one component falsely fails with
probability 2.0e-9 at 6 sigma, so a set of ten runs of all three
workloads (about 4e3 such checks) falsely fails with probability near 1e-5.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import levymult as lm
import levymult.cli

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SCRATCH = ROOT / ".perfbench"
K_SIGMA = 6.0
TARGET_SE = 1e-3          # accuracy that time_to_se is normalised to
L_BOX, N_GRID = 40.0, 1024


class NotFinite(Exception):
    """The library returned NaN or infinite values."""


class Clock:
    """Accumulates the time spent inside library calls."""

    def __init__(self):
        self.seconds = 0.0

    @contextlib.contextmanager
    def lib(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0


def finite(*values):
    for v in values:
        if not np.all(np.isfinite(np.asarray(v))):
            raise NotFinite("non-finite values in the library's output")


def sigmas(est, se, target):
    """Largest componentwise distance |est - target| in standard errors."""
    floor = 1e-9 * max(abs(est), abs(target), 1e-300)
    return max(abs(est.real - target.real) / max(se.real, floor),
               abs(est.imag - target.imag) / max(se.imag, floor))


def run_cli(clock, *args):
    """levymult.cli.main in-process, writing into a fresh directory."""
    SCRATCH.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=SCRATCH))
    buf = io.StringIO()
    with clock.lib(), contextlib.redirect_stdout(buf):
        code = levymult.cli.main([*args, "--out", str(out)])
    if code != 0:
        shutil.rmtree(out)
        raise RuntimeError(f"levymult {args[0]} exited {code}: {buf.getvalue().splitlines()[-1:]}")
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report_rows(path):
    """quantity -> (value, stderr) from an mc or gaussian-mc report."""
    rows = {}
    for r in read_csv(path):
        rows[r["quantity"]] = (complex(float(r["re"]), float(r["im"])),
                               complex(float(r["se_re"]), float(r["se_im"])))
    return rows


def load_config(name):
    return json.loads((CONFIGS / name).read_text())


# ---------------------------------------------------------------------------
# cpp-pairing
# ---------------------------------------------------------------------------

# Per-path-heavy (|nu| = 1 to 1.4) and per-jump-heavy (|nu| = 6) models.
CPP_MODELS = {
    "single-atom": dict(atoms=[[1.0]], weights=[1.0], phi=None,
                        A=[[1.0]], B=[[1.0]], paths=2000),
    "three-atom": dict(atoms=[[1.0], [-2.0], [0.5]], weights=[0.7, 0.3, 0.4],
                       phi=[0.5, -0.8j, 0.3 + 0.4j], A=[[1.0]], B=[[-1.0]], paths=1500),
    "n2-projection": dict(atoms=[[1.0, 0.5], [-0.8, 1.2]], weights=[0.8, 0.6],
                          phi=[0.9, -0.6j], A=[[1.0, 0.0]], B=[[0.3, 1.0]], paths=1500),
    "high-intensity": dict(atoms=[[0.6], [-1.1], [0.3], [1.7]],
                           weights=[2.0, 1.5, 1.5, 1.0],
                           phi=[0.6j, -0.5, 0.9, 0.4 - 0.3j], A=[[1.0]], B=[[-0.8]],
                           paths=600),
}
ISOMETRY_PATHS = 800
ISOMETRY_POWERS = (1.5, 2.0, 3.0)
CLI_MC_PATHS = 1500


def build_atom_model(spec):
    n = len(spec["atoms"][0])
    data = lm.make_data(lm.AtomsMeasure(spec["atoms"], spec["weights"]),
                        A=spec["A"], B=spec["B"], d=1, n=n)
    mod = lm.IDENTITY_MOD if spec["phi"] is None else lm.Modulator(phi=lm.table_mod(spec["phi"]))
    return data, mod


def setup_cpp():
    cfg = load_config("mc_single_atom.json")
    if cfg["measure"]["variant"] != "atoms" or cfg["modulator"]["phi"]["kind"] != "constant":
        raise ValueError("mc_single_atom.json no longer describes an atomic model with constant phi")
    phi = complex(*cfg["modulator"]["phi"]["value"])
    cli_model = dict(atoms=cfg["measure"]["atoms"], weights=cfg["measure"]["weights"],
                     phi=[phi] * len(cfg["measure"]["weights"]),
                     A=cfg["matrices"]["A"], B=cfg["matrices"]["B"])
    xi = ref.lattice(cfg["grid"]["length"], cfg["grid"]["points"], 1)
    f, g = cfg["field"], cfg["field_g"]
    cli_ref = ref.spectral_pairing(ref.q_form(cli_model, xi), cfg["grid"]["length"], 1,
                                   ref.bump_hat(xi, f["center"], f["width"]),
                                   ref.bump_hat(-xi, g["center"], g["width"]))
    return {
        "models": {name: build_atom_model(spec) for name, spec in CPP_MODELS.items()},
        "xi": ref.lattice(L_BOX, N_GRID, 1),
        "cli_ref": cli_ref,
    }


def cpp_pairing_op(ctx, name, rng):
    spec = CPP_MODELS[name]
    data, mod = ctx["models"][name]
    cf, cg = rng.uniform(0.3, 0.7), rng.uniform(-0.5, -0.1)
    seed = int(rng.integers(1, 2**31))
    f = lm.gaussian_bump(L_BOX, N_GRID, 1, center=[cf], width=0.9)
    g = lm.gaussian_bump(L_BOX, N_GRID, 1, center=[cg], width=1.1)

    def op(clock):
        with clock.lib():
            est = lm.estimate_pairing(f, g, data, mod, spec["paths"], seed)
        finite(est.estimate, est.stderr, est.cov_estimate, est.diff_stderr)
        xi = ctx["xi"]
        model = dict(spec, phi=spec["phi"] or [1.0] * len(spec["weights"]))
        target = ref.spectral_pairing(ref.q_form(model, xi), L_BOX, 1,
                                      ref.bump_hat(xi, cf, 0.9), ref.bump_hat(-xi, cg, 1.1))
        s_ref = sigmas(est.estimate, est.stderr, target)
        s_routes = sigmas(est.estimate - est.cov_estimate, est.diff_stderr, 0j)
        ok = s_ref <= K_SIGMA and s_routes <= K_SIGMA
        return ok, f"{s_ref:.2f} sigma from reference, routes {s_routes:.2f} sigma", abs(est.stderr)

    return op


def cpp_isometry_op(ctx, rng):
    """Each path's F_1 = f(. + A Y_1) is a translate of f, so its L^p norm
    is that of f for every path, up to roundoff."""
    data, _ = ctx["models"]["three-atom"]
    center = rng.uniform(-0.5, 0.5)
    seed = int(rng.integers(1, 2**31))
    f = lm.gaussian_bump(L_BOX, N_GRID, 1, center=[center], width=0.9)

    def op(clock):
        with clock.lib():
            stats = lm.run_cpp_paths(f, f, data, lm.IDENTITY_MOD, ISOMETRY_PATHS, seed,
                                     fend_powers=ISOMETRY_POWERS)
        worst = 0.0
        for p in ISOMETRY_POWERS:
            finite(stats["fend_pow"][p])
            target = ref.bump_lp_power(0.9, 1, p)
            worst = max(worst, float(np.max(np.abs(stats["fend_pow"][p] - target))) / target)
        return worst <= 1e-9, f"worst relative L^p deviation {worst:.1e}", None

    return op


def cpp_cli_op(ctx):
    def op(clock):
        out = run_cli(clock, "mc", "--config", str(CONFIGS / "mc_single_atom.json"),
                      "--paths", str(CLI_MC_PATHS))
        rows = report_rows(out / "mc_report.csv")
        shutil.rmtree(out)
        (est, se), (cov, cov_se), (spec, _) = (rows["mc_endpoint"], rows["mc_covariation"],
                                               rows["spectral"])
        finite(est, se, cov, cov_se, spec)
        target = ctx["cli_ref"]
        s_ref = sigmas(est, se, target)
        joint = complex(math.hypot(se.real, cov_se.real), math.hypot(se.imag, cov_se.imag))
        s_routes = sigmas(est - cov, joint, 0j)
        spec_gap = abs(spec - target)
        ok = s_ref <= K_SIGMA and s_routes <= K_SIGMA and spec_gap <= 1e-10
        return ok, (f"{s_ref:.2f} sigma from reference, routes {s_routes:.2f} sigma, "
                    f"spectral value off by {spec_gap:.1e}"), abs(se)

    return op


def rounds_cpp(ctx, rng):
    ops = [(f"pairing/{name}", cpp_pairing_op(ctx, name, rng)) for name in CPP_MODELS]
    ops.append(("isometry/three-atom", cpp_isometry_op(ctx, rng)))
    ops.append(("cli/mc", cpp_cli_op(ctx)))
    return ops


# ---------------------------------------------------------------------------
# brownian-pairing
# ---------------------------------------------------------------------------

BROWNIAN_PATHS, BROWNIAN_STEPS = 200, 200
# Gate-on runs at fixed seeds 0-3: the gate's false alarm shows on seed 3.
GATED_RUNS = [(1.0, 0), (1.0, 1), (0.7j, 2), (0.7j, 3)]
CLI_GAUSSIAN_PATHS = 64


def setup_brownian():
    cfg = load_config("gaussian_mc.json")
    f, g = cfg["field"], cfg["field_g"]
    ff = lm.gaussian_bump(cfg["grid"]["length"], cfg["grid"]["points"], 1,
                          center=f["center"], width=f["width"])
    gg = lm.gaussian_bump(cfg["grid"]["length"], cfg["grid"]["points"], 1,
                          center=g["center"], width=g["width"])
    K = np.array([[complex(*v) for v in row] for row in cfg["symbol"]["K"]])
    s = cfg["params"]["var_scale"]
    xi = ref.lattice(cfg["grid"]["length"], cfg["grid"]["points"], 1)

    def pairing_ref(A, B, Kmat, cf, wf, cg, wg, L=cfg["grid"]["length"]):
        m = ref.gaussian(A, B, Kmat, xi, s)
        return ref.spectral_pairing(m, L, 1, ref.bump_hat(xi, cf, wf),
                                    ref.bump_hat(-xi, cg, wg))

    return {
        "f": ff, "g": gg, "var_scale": s,
        "pairing_ref": pairing_ref,
        "fixed_ref": {Kv: pairing_ref([[1.0]], [[1.0]], [[Kv]], f["center"], f["width"],
                                      g["center"], g["width"]) for Kv, _ in GATED_RUNS},
        "cli_ref": pairing_ref(cfg["matrices"]["A"], cfg["matrices"]["B"], K,
                               f["center"], f["width"], g["center"], g["width"]),
        "cli_steps": cfg["params"]["steps"],
    }


def brownian_check(est, target, steps):
    """Endpoint route within K_SIGMA standard errors; the covariation route
    is a left-point time sum, biased by about |ref| / (2 steps), so it gets
    |ref| / steps on top of its own standard errors."""
    finite(est.estimate, est.stderr, est.cov_estimate, est.cov_stderr)
    s_ref = sigmas(est.estimate, est.stderr, target)
    bias = abs(target) / steps
    gap = est.cov_estimate - target
    cov_ok = (abs(gap.real) <= bias + K_SIGMA * est.cov_stderr.real
              and abs(gap.imag) <= bias + K_SIGMA * est.cov_stderr.imag)
    return s_ref <= K_SIGMA and cov_ok, (f"{s_ref:.2f} sigma from reference, covariation "
                                         f"off by {abs(gap):.1e} (allowed {bias:.1e} + noise)")


def brownian_gated_op(ctx, Kv, seed):
    def op(clock):
        with clock.lib():
            est = lm.brownian_pairing(ctx["f"], ctx["g"], [[1.0]], [[1.0]], [[Kv]],
                                      BROWNIAN_PATHS, BROWNIAN_STEPS, seed,
                                      var_scale=ctx["var_scale"], richardson=True)
        ok, detail = brownian_check(est, ctx["fixed_ref"][Kv], BROWNIAN_STEPS)
        return ok, detail, abs(est.stderr)

    return op


def brownian_seeded_op(ctx, A, B, Kv, rng):
    """Gate off: with it on, a seed-derived run would raise StepTooCoarse
    on roughly one seed in eight, whatever the estimate."""
    cf, cg = rng.uniform(0.2, 0.6), rng.uniform(-0.4, 0.0)
    seed = int(rng.integers(1, 2**31))
    f = lm.gaussian_bump(L_BOX, N_GRID, 1, center=[cf], width=0.9)
    g = lm.gaussian_bump(L_BOX, N_GRID, 1, center=[cg], width=1.0)

    def op(clock):
        with clock.lib():
            est = lm.brownian_pairing(f, g, A, B, [[Kv]], BROWNIAN_PATHS, BROWNIAN_STEPS, seed,
                                      var_scale=ctx["var_scale"], richardson=False)
        target = ctx["pairing_ref"](A, B, [[Kv]], cf, 0.9, cg, 1.0)
        ok, detail = brownian_check(est, target, BROWNIAN_STEPS)
        return ok, detail, abs(est.stderr)

    return op


def brownian_cli_op(ctx):
    def op(clock):
        out = run_cli(clock, "gaussian-mc", "--config", str(CONFIGS / "gaussian_mc.json"),
                      "--paths", str(CLI_GAUSSIAN_PATHS))
        rows = report_rows(out / "gaussian_mc_report.csv")
        shutil.rmtree(out)
        (est, se), (cov, cov_se), (spec, _) = (rows["mc_endpoint"], rows["mc_covariation"],
                                               rows["spectral"])
        finite(spec)
        ok, detail = brownian_check(SimpleNamespace(estimate=est, stderr=se, cov_estimate=cov,
                                                    cov_stderr=cov_se),
                                    ctx["cli_ref"], ctx["cli_steps"])
        spec_gap = abs(spec - ctx["cli_ref"])
        return ok and spec_gap <= 1e-10, f"{detail}, spectral value off by {spec_gap:.1e}", abs(se)

    return op


def rounds_brownian(ctx, rng):
    ops = [(f"gated/K={Kv}/seed={seed}", brownian_gated_op(ctx, Kv, seed))
           for Kv, seed in GATED_RUNS]
    ops.append(("seeded/A=B/K=1", brownian_seeded_op(ctx, [[1.0]], [[1.0]], 1.0, rng)))
    ops.append(("seeded/A!=B/K=0.9i", brownian_seeded_op(ctx, [[1.0]], [[-0.8]], 0.9j, rng)))
    ops.append(("cli/gaussian-mc", brownian_cli_op(ctx)))
    return ops


# ---------------------------------------------------------------------------
# symbol-probe
# ---------------------------------------------------------------------------

THREE_ATOM = dict(atoms=[[1.0], [-2.0], [0.5]], weights=[0.7, 0.3, 0.4],
                  phi=[0.5, -0.8j, 0.3 + 0.4j], A=[[1.0]], B=[[-1.0]])
LIMIT_MODEL = dict(atoms=[[1.0], [0.4]], weights=[0.8, 0.5], phi=[0.6, -0.7j],
                   sphere=[[1.0]], sphere_weights=[0.6], psi=[-0.5], A=[[1.0]], B=[[1.0]])
SINGLE_ATOM = dict(atoms=[[1.0]], weights=[1.0], phi=[1.0], A=[[1.0]], B=[[1.0]])
EQUIVALENCE_MODELS = [
    SINGLE_ATOM,
    THREE_ATOM,
    dict(atoms=[[0.8], [1.7]], weights=[0.6, 0.9], phi=[0.9j, -0.4], sphere=[[1.0]],
         sphere_weights=[0.4], psi=[0.8], gamma=[0.3], A=[[2.0]], B=[[0.5]]),
]
RIESZ_K = [[0.0, -1.0], [-1.0, 0.0]]
EPS_LADDER = (0.1, 0.01, 0.001)
EPS_XI = np.array([0.25, 0.5, 1.0, 2.0])
STABLE_FAULT_XI = np.array([0.6, 1.2, -0.8, 2.0])
PROBE_1D = dict(p=(1.25, 2.0, 4.0), trials=100, ascent=40)
PROBE_2D = dict(p=(1.5, 2.0, 3.0), trials=20, ascent=10)


def build_model(spec):
    """Library data and weights for a reference model dict."""
    mu = None
    if spec.get("sphere"):
        mu = lm.SphericalMeasure(spec["sphere"], spec["sphere_weights"])
    data = lm.make_data(lm.AtomsMeasure(spec["atoms"], spec["weights"]), mu=mu,
                        gamma=spec.get("gamma"), A=spec["A"], B=spec["B"])
    phi = lm.table_mod(spec["phi"])
    psi = lm.table_mod(spec["psi"]) if spec.get("psi") else lm.constant_mod(1.0)
    return data, lm.Modulator(phi=phi, psi=psi)


def stable_model(alpha):
    return (lm.make_data(lm.StableMeasure(alpha, 1), A=[[-1.0]], B=[[1.0]]),
            lm.Modulator(phi=lm.sign_mod()))


def setup_symbols():
    three, three_mod = build_model(THREE_ATOM)
    limit, limit_mod = build_model(LIMIT_MODEL)
    single, _ = build_model(SINGLE_ATOM)
    cfg = load_config("stable_symbol.json")
    # (name, spec, reference at lattice rows); both store 0 where a symbol is undefined
    grids = [
        ("q_form", lm.SymbolSpec(variant="q_form", data=three, mod=three_mod),
         lambda xi: ref.q_form(THREE_ATOM, xi)),
        ("integral_form", lm.SymbolSpec(variant="integral_form", data=three, mod=three_mod),
         lambda xi: ref.q_form(THREE_ATOM, xi)),
        ("limit_form", lm.SymbolSpec(variant="limit_form", data=limit, mod=limit_mod),
         lambda xi: ref.limit_form(LIMIT_MODEL, xi)),
        ("gaussian", lm.SymbolSpec(variant="gaussian", A=[[1.0]], B=[[-0.8]], K=[[0.9j]]),
         lambda xi: ref.gaussian([[1.0]], [[-0.8]], [[0.9j]], xi, 1.0)),
        ("gaussian_limit", lm.SymbolSpec(variant="gaussian_limit", A=np.eye(2), K=RIESZ_K),
         ref.riesz),
        ("stable", lm.SymbolSpec(variant="stable", alpha=0.5),
         lambda xi: ref.stable(0.5, xi[:, 0])),
        ("preset-log", lm.SymbolSpec(variant="preset", preset="log", d=2, j=0),
         lambda xi: ref.log_ratio(xi, 0)),
        ("preset-riesz", lm.SymbolSpec(variant="preset", preset="riesz", d=2), ref.riesz),
    ]
    probes = [
        ("q_form-single-atom", lm.SymbolSpec(variant="q_form", data=single),
         lambda xi: ref.q_form(SINGLE_ATOM, xi)),
        ("stable", lm.SymbolSpec(variant="stable", alpha=0.5),
         lambda xi: ref.stable(0.5, xi[:, 0])),
        ("gaussian-K=1", lm.SymbolSpec(variant="gaussian", A=[[1.0]], B=[[1.0]], K=[[1.0]]),
         lambda xi: ref.gaussian([[1.0]], [[1.0]], [[1.0]], xi, 1.0)),
    ]
    if cfg["symbol"]["variant"] != "stable" or cfg.get("field", {}).get("center"):
        raise ValueError("stable_symbol.json no longer describes the stable symbol on a centred bump")
    return {
        "grids": grids,
        "probes": probes,
        "riesz": lm.SymbolSpec(variant="preset", preset="riesz", d=2),
        "equivalence": [(spec,) + build_model(spec) for spec in EQUIVALENCE_MODELS],
        "stable": {a: stable_model(a) for a in (0.5, 0.75, 1.5, 1.9)},
        "cli_cfg": cfg,
    }


def grid_values(grid, reference):
    """Library grid values and the reference on the same lattice rows."""
    L, N, d = grid.L[0], grid.N[0], grid.d
    vals = np.asarray(grid.values).ravel()
    return vals, reference(ref.lattice(L, N, d))


def default_grid_op(spec, reference, antisymmetric=False):
    def op(clock):
        with clock.lib():
            grid = lm.evaluate_grid(spec)
        vals, want = grid_values(grid, reference)
        finite(vals)
        gap = float(np.max(np.abs(vals - want)))
        top = float(np.max(np.abs(vals)))
        ok = top <= 1.0 + 1e-9 and gap <= 1e-10
        detail = f"max|m| {top:.9f}, off reference by {gap:.1e}"
        if antisymmetric:
            xi = ref.lattice(grid.L[0], grid.N[0], 1)[:, 0]
            order = np.argsort(xi)
            odd = float(np.max(np.abs(vals[order][1:] + vals[order][1:][::-1])))
            ok &= odd <= 1e-15
            detail += f", |m(-xi) + m(xi)| {odd:.1e}"
        return ok, detail, None

    return op


def equivalence_op(model, data, mod, rng):
    xi = rng.normal(size=(200, 1)) * 4.0

    def op(clock):
        with clock.lib():
            q = lm.symbol_q(data, mod, xi)
            integral = lm.symbol_integral(data, mod, xi)
        finite(q, integral)
        gap = float(np.max(np.abs(q - integral)))
        off = float(np.max(np.abs(q - ref.q_form(model, xi))))
        return gap <= 1e-10 and off <= 1e-10, f"|q - integral| {gap:.1e}, q off reference {off:.1e}", None

    return op


def eps_surrogate_op(ctx):
    data, mod = ctx["stable"][0.5]
    want = ref.stable(0.5, EPS_XI)

    def op(clock):
        errs = []
        for eps in EPS_LADDER:
            with clock.lib():
                d_eps, m_eps = lm.approximate(data, mod, eps, zeta_max=4.5)
                vals = lm.symbol_q(d_eps, m_eps, EPS_XI[:, None])
            finite(vals)
            errs.append(np.abs(vals - want) / np.abs(want))
        ok = all(np.all(errs[i + 1] < errs[i]) for i in range(len(errs) - 1))
        ok &= bool(np.all(errs[-1] < 1e-2))
        return ok, "relative errors " + " > ".join(f"{e.max():.1e}" for e in errs), None

    return op


def stable_radial_op(ctx, alpha, xi):
    """q-form of the sign-weighted stable model through radial quadrature,
    against the closed form and the oddness m(-xi) = -m(xi)."""
    data, mod = ctx["stable"][alpha]
    both = np.concatenate([xi, -xi])[:, None]

    def op(clock):
        with clock.lib():
            vals = lm.symbol_q(data, mod, both)
        finite(vals)
        gap = float(np.max(np.abs(vals - ref.stable(alpha, both[:, 0]))))
        odd = float(np.max(np.abs(vals[:xi.size] + vals[xi.size:])))
        return gap <= 1e-9 and odd <= 1e-12, f"off closed form {gap:.1e}, oddness {odd:.1e}", None

    return op


def stable_nan_grid_op(ctx):
    """q-form of the alpha = 1.9 sign-weighted model on an 8-point grid."""
    data, mod = ctx["stable"][1.9]
    spec = lm.SymbolSpec(variant="q_form", data=data, mod=mod)

    def op(clock):
        with clock.lib(), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid = lm.evaluate_grid(spec, L=L_BOX, N=8)
        vals, want = grid_values(grid, lambda xi: ref.stable(1.9, xi[:, 0]))
        finite(vals)
        gap = float(np.max(np.abs(vals - want)))
        top = float(np.max(np.abs(vals)))
        return gap <= 1e-9 and top <= 1.0 + 1e-9, f"max|m| {top:.9f}, off closed form {gap:.1e}", None

    return op


def probe_checks(reports, m_max):
    worst, ok = 0.0, True
    for rep in reports:
        finite(rep.best_ratio)
        bound = ref.p_star_minus_one(rep.p)
        ok &= rep.best_ratio <= bound * (1.0 + 5e-3)
        if rep.p == 2.0:
            ok &= rep.best_ratio <= m_max * (1.0 + 1e-9)
        worst = max(worst, rep.best_ratio / bound)
    return ok, worst


def probe_op(spec, reference, params, rng):
    seed = int(rng.integers(0, 2**15))

    def op(clock):
        with clock.lib():
            grid = lm.evaluate_grid(spec)
            reports = [lm.norm_probe(grid, p, trials=params["trials"], seed=seed,
                                     ascent_steps=params["ascent"]) for p in params["p"]]
        vals, want = grid_values(grid, reference)
        ok, worst = probe_checks(reports, float(np.max(np.abs(want))))
        ok &= float(np.max(np.abs(vals - want))) <= 1e-10
        return ok, f"largest ratio / bound {worst:.4f}", None

    return op


def cli_symbol_op(ctx):
    cfg = ctx["cli_cfg"]
    alpha = cfg["symbol"]["alpha"]
    L, N = cfg["grid"]["length"], cfg["grid"]["points"]

    def op(clock):
        out = run_cli(clock, "symbol", "--config", str(CONFIGS / "stable_symbol.json"))
        rows = read_csv(out / "symbol.csv")
        payload = np.fromfile(out / "symbol.lmgrid", dtype="<f8", offset=8 + 8 + 16)
        shutil.rmtree(out)
        xi = np.array([float(r["xi_1"]) for r in rows])
        m = np.array([complex(float(r["re_m"]), float(r["im_m"])) for r in rows])
        finite(m, payload)
        want_xi = np.sort(ref.lattice(L, N, 1)[:, 0])
        want = ref.stable(alpha, want_xi)
        gap = max(float(np.max(np.abs(xi - want_xi))), float(np.max(np.abs(m - want))),
                  float(np.max(np.abs(payload[0::2] + 1j * payload[1::2] - want))))
        return gap <= 1e-12, f"csv and binary off closed form by {gap:.1e}", None

    return op


def cli_apply_op(ctx):
    cfg = ctx["cli_cfg"]
    alpha = cfg["symbol"]["alpha"]
    L, N = cfg["grid"]["length"], cfg["grid"]["points"]
    width = cfg.get("field", {}).get("width", 1.0)
    xi = ref.lattice(L, N, 1)[:, 0]
    x = ref.space_axis(L, N)
    want = ref.apply_1d(ref.stable(alpha, xi), xi, ref.bump_hat(xi[:, None], 0.0, width), x, L)

    def op(clock):
        out = run_cli(clock, "apply", "--config", str(CONFIGS / "stable_symbol.json"))
        rows = read_csv(out / "applied.csv")
        shutil.rmtree(out)
        vals = np.array([complex(float(r["re_f"]), float(r["im_f"])) for r in rows])
        finite(vals)
        gap = float(np.max(np.abs(vals - want)))
        return gap <= 1e-10, f"applied field off direct sum by {gap:.1e}", None

    return op


def cli_probe_op(ctx):
    cfg = ctx["cli_cfg"]
    xi = ref.lattice(cfg["grid"]["length"], cfg["grid"]["points"], 1)[:, 0]
    m_max = float(np.max(np.abs(ref.stable(cfg["symbol"]["alpha"], xi))))

    def op(clock):
        out = run_cli(clock, "probe", "--config", str(CONFIGS / "stable_symbol.json"))
        rows = read_csv(out / "probe.csv")
        shutil.rmtree(out)
        reports = [SimpleNamespace(p=float(r["p"]), best_ratio=float(r["best_ratio"]))
                   for r in rows]
        ok, worst = probe_checks(reports, m_max)
        ok &= len(rows) == len(cfg["params"]["p"]) and all(r["pass"] == "true" for r in rows)
        ok &= all(float(r["bound"]) == ref.p_star_minus_one(float(r["p"])) for r in rows)
        return ok, f"largest ratio / bound {worst:.4f}", None

    return op


def rounds_symbols(ctx, rng):
    ops = [(f"grid/{name}", default_grid_op(spec, reference, antisymmetric=name == "stable"))
           for name, spec, reference in ctx["grids"]]
    ops += [(f"equivalence/{i}", equivalence_op(model, data, mod, rng))
            for i, (model, data, mod) in enumerate(ctx["equivalence"])]
    ops.append(("eps-surrogate", eps_surrogate_op(ctx)))
    for alpha in (0.5, 0.75):
        # |xi| >= 0.05: below about 5e-4 the radial quadrature does not converge
        xi = rng.uniform(0.05, 3.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        ops.append((f"stable-radial/alpha={alpha}", stable_radial_op(ctx, alpha, xi)))
    ops.append(("stable-radial/alpha=1.5", stable_radial_op(ctx, 1.5, STABLE_FAULT_XI)))
    ops.append(("stable-grid/alpha=1.9", stable_nan_grid_op(ctx)))
    ops += [(f"probe-1d/{name}", probe_op(spec, reference, PROBE_1D, rng))
            for name, spec, reference in ctx["probes"]]
    ops.append(("probe-2d/riesz", probe_op(ctx["riesz"], ref.riesz, PROBE_2D, rng)))
    ops += [("cli/symbol", cli_symbol_op(ctx)), ("cli/apply", cli_apply_op(ctx)),
            ("cli/probe", cli_probe_op(ctx))]
    return ops


WORKLOADS = {
    "cpp-pairing": (setup_cpp, rounds_cpp),
    "brownian-pairing": (setup_brownian, rounds_brownian),
    "symbol-probe": (setup_symbols, rounds_symbols),
}


# ---------------------------------------------------------------------------
# round loop
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.ops = {}

    def add(self, name, status, detail, seconds):
        self.attempted += 1
        self.failed += status == "failed"
        self.wrong += status == "wrong"
        entry = self.ops.setdefault(name, {"ok": 0, "failed": 0, "wrong": 0, "seconds": []})
        entry[status] += 1
        entry["detail"] = detail
        entry["seconds"].append(round(seconds, 6))


def run_round(ctx, make_ops, seed, index, tally, tracer=None):
    """One round; returns (library seconds, total seconds, time_to_se)."""
    rng = np.random.default_rng([seed, index])
    ops = make_ops(ctx, rng)
    t0 = time.perf_counter()
    lib_seconds, to_se = 0.0, 0.0
    for name, op in ops:
        clock = Clock()
        span = tracer.open("bench." + name.split("/")[0]) if tracer else None
        try:
            ok, detail, se = op(clock)
            status = "ok" if ok else "wrong"
            if se is not None:
                to_se += clock.seconds * (se / TARGET_SE) ** 2
        except Exception as exc:  # a library failure is counted, not fatal
            status, detail = "failed", f"{type(exc).__name__}: {str(exc)[:160]}"
        finally:
            if tracer:
                tracer.close(span)
        lib_seconds += clock.seconds
        tally.add(name, status, detail, clock.seconds)
    return lib_seconds, time.perf_counter() - t0, to_se


def run_phase(ctx, make_ops, seed, first, budget, tally, tracer=None):
    """Whole rounds until the next one would overrun the budget (at least one)."""
    rows = []
    t0 = time.perf_counter()
    while True:
        rows.append(run_round(ctx, make_ops, seed, first + len(rows), tally, tracer))
        if time.perf_counter() - t0 + rows[-1][1] > budget:
            return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    setup, make_ops = WORKLOADS[args.workload]
    ctx = setup()
    if args.setup_only:
        return 0

    tally = Tally()
    result = {}
    if args.trace:
        import tracer as tracing

        plain = run_phase(ctx, make_ops, args.seed, 0, args.seconds / 2, tally)
        tr = tracing.Tracer()
        missing = tr.install()
        traced = run_phase(ctx, make_ops, args.seed, len(plain), args.seconds / 2, tally, tr)
        layers, bench, attributed = tr.layer_metrics(len(traced))
        wall_traced = statistics.fmean(r[1] for r in traced)
        layers["bench.check_s"] = (bench, "s")
        layers["mc.time_to_se_s"] = (statistics.median(r[2] for r in plain), "s")
        layers["trace.wall_s"] = (wall_traced, "s")
        layers["trace.unattributed_s"] = (wall_traced - attributed, "s")
        layers["trace.overhead_s"] = (wall_traced - statistics.fmean(r[1] for r in plain), "s")
        SCRATCH.mkdir(exist_ok=True)
        tr.dump(SCRATCH / f"spans-{args.workload}.json")
        result.update(layers={k: {"value": v, "unit": u} if v is not None
                              else {"value": None, "unit": u, "absent": True}
                              for k, (v, u) in layers.items()},
                      missing_targets=missing, count_errors=sorted(tr.count_errors),
                      rounds=[len(plain), len(traced)])
    else:
        rows = run_phase(ctx, make_ops, args.seed, 0, args.seconds, tally)
        result.update(wall_s=statistics.median(r[0] for r in rows), rounds=len(rows),
                      round_seconds=[round(r[1], 4) for r in rows])
    result.update(attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
                  ops=tally.ops,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
