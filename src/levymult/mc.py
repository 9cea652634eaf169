"""Monte-Carlo verification of the martingale construction.

Single paths get exact traces (parabolic endpoint-type martingale F, the
jump-transformed martingale G, their quadratic variations); bulk
estimates run through the blocked frequency-coefficient kernels.  All
randomness flows from one master seed through counter-based per-path
streams, so results are independent of block size and scheduling.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    MeasureValidationError,
    QuadratureNodesInsufficient,
    StepTooCoarse,
    TraceMismatch,
)
from .grids import freq_grid, negate_index
from .kernels import brownian_accumulate, cpp_pair_coeffs
from .levy import (
    AtomsMeasure,
    LevyData,
    Modulator,
    _phi_values_at_atoms,
    drift_reduce,
    psi,
    validate,
)
from .quadrature import panel_rule
from .spectral import (
    SampledField,
    pairing,
    semigroup_eval,
    transform_forward,
    values_from_coefficients,
)
from .symbols import SymbolSpec, evaluate_grid

# ---------------------------------------------------------------------------
# counter-based streams and path simulation
# ---------------------------------------------------------------------------


def path_stream(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one path: Philox keyed by (seed, index)."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.default_rng(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class JumpPath:
    """One compound-Poisson trajectory on the unit horizon."""

    times: np.ndarray   # (J,) strictly increasing in (0, 1]
    marks: np.ndarray   # (J,) indices into the atom list
    jumps: np.ndarray   # (J, n) jump vectors
    intensity: float    # total mass of the jump measure


def simulate_cpp(nu: AtomsMeasure, seed, index: int = 0) -> JumpPath:
    """Sample jump count Poisson(|nu|), times as uniform order statistics,
    marks with law nu/|nu|.  Deterministic for a fixed (seed, index)."""
    lam = nu.total_mass
    if not lam > 0.0:
        raise MeasureValidationError("compound-Poisson simulation needs |nu| > 0")
    rng = seed if isinstance(seed, np.random.Generator) else path_stream(seed, index)
    count = int(rng.poisson(lam))
    times = np.sort(rng.random(count))
    cum = np.cumsum(nu.weights) / lam
    marks = np.minimum(np.searchsorted(cum, rng.random(count), side="right"),
                       nu.weights.size - 1)
    return JumpPath(times=times, marks=marks, jumps=nu.atoms[marks], intensity=lam)


# ---------------------------------------------------------------------------
# exact single-path traces
# ---------------------------------------------------------------------------


class _Semigroup:
    """Cached spectral semigroup for one (field, map, data) triple.

    Precomputes the exponent on the frequency lattice once, so repeated
    evaluations along a path cost only the phase sums.
    """

    def __init__(self, f: SampledField, A, data: LevyData):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        fhat = transform_forward(f).ravel()
        Xi = freq_grid(f.L, f.N, f.d)
        keep = np.abs(fhat) > 1e-16 * np.abs(fhat).max()
        self.Xi = Xi[keep]
        self.psiA = np.atleast_1d(psi(data, -(self.Xi @ self.A)))
        dxi = float(np.prod(2.0 * np.pi / np.asarray(f.L)))
        self.base = fhat[keep] * dxi / (2.0 * np.pi) ** f.d

    def at(self, s: float, points) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        weights = self.base * np.exp(s * self.psiA)
        return np.exp(-1j * (P @ self.Xi.T)) @ weights


@dataclass(frozen=True, eq=False)
class MartingaleTrace:
    """Values of a martingale along one path at 0, the jump times, and 1.

    qv is the running quadratic variation: the squared-modulus jump sums,
    plus the |F_0|^2 head start for the endpoint-type martingale.
    """

    path: JumpPath
    kind: str                # "parabolic" | "general"
    times: np.ndarray        # (J+2,)
    values: np.ndarray       # right-continuous values at `times`
    left_values: np.ndarray  # left limits at the jump times (J,)
    jump_deltas: np.ndarray  # (J,)
    head: float

    @property
    def qv(self) -> np.ndarray:
        run = np.concatenate([[0.0], np.cumsum(np.abs(self.jump_deltas) ** 2), [0.0]])
        run[-1] = run[-2]
        return self.head + run

    @property
    def final(self) -> complex:
        return complex(self.values[-1])


def _jump_states(path: JumpPath, h: np.ndarray):
    """Positions just before and just after each jump, drift included."""
    n = h.size
    csum = np.vstack([np.zeros(n), np.cumsum(path.jumps, axis=0)]) if path.times.size \
        else np.zeros((1, n))
    before = csum[:-1] + h * path.times[:, None]
    after = csum[1:] + h * path.times[:, None]
    y_final = csum[-1] + h
    return before, after, y_final


def parabolic_F(path: JumpPath, f: SampledField, A, data: LevyData, x,
                _sg: "_Semigroup" = None) -> MartingaleTrace:
    """Endpoint-type martingale F_t = P^A_{1-t} f(x + A Y_t) along one path."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    _, h = drift_reduce(data)
    before, after, y_final = _jump_states(path, h)
    sg = _sg if _sg is not None else _Semigroup(f, A, data)
    f0 = complex(sg.at(1.0, x)[0])
    lefts = np.empty(path.times.size, dtype=complex)
    rights = np.empty(path.times.size, dtype=complex)
    for i, v in enumerate(path.times):
        s = 1.0 - v
        pair = sg.at(s, np.vstack([x + A @ before[i], x + A @ after[i]]))
        lefts[i] = pair[0]
        rights[i] = pair[1]
    f1 = complex(sg.at(0.0, x + A @ y_final)[0])
    values = np.concatenate([[f0], rights, [f1]])
    times = np.concatenate([[0.0], path.times, [1.0]])
    return MartingaleTrace(path=path, kind="parabolic", times=times, values=values,
                           left_values=lefts, jump_deltas=rights - lefts,
                           head=abs(f0) ** 2)


def general_G(path: JumpPath, g: SampledField, B, mod: Modulator, data: LevyData,
              x, nodes: int = 8, check_nodes: bool = True,
              _sg: "_Semigroup" = None) -> MartingaleTrace:
    """Jump-transformed martingale: the phi-weighted jump sum of the
    endpoint-type increments minus its jump-measure compensator.

    The compensator's time integral over each inter-jump interval uses
    Gauss-Legendre quadrature (`nodes` points); with check_nodes the node
    count is doubled and a change of G_1 above 1e-8 warns.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    nu = data.nu
    if not isinstance(nu, AtomsMeasure):
        raise MeasureValidationError("general_G needs a finite atomic jump measure")
    phi_atoms = _phi_values_at_atoms(mod, nu)
    _, h = drift_reduce(data)
    before, after, y_final = _jump_states(path, h)
    sg = _sg if _sg is not None else _Semigroup(g, B, data)

    deltas = np.empty(path.times.size, dtype=complex)
    for i, v in enumerate(path.times):
        s = 1.0 - v
        pair = sg.at(s, np.vstack([x + B @ after[i], x + B @ before[i]]))
        deltas[i] = (pair[0] - pair[1]) * phi_atoms[path.marks[i]]

    def compensator_increments(q):
        csum = np.vstack([np.zeros(h.size), np.cumsum(path.jumps, axis=0)]) \
            if path.times.size else np.zeros((1, h.size))
        edges = np.concatenate([[0.0], path.times, [1.0]])
        out = np.zeros(edges.size - 1, dtype=complex)
        wz = phi_atoms * nu.weights
        for i in range(edges.size - 1):
            a, b = edges[i], edges[i + 1]
            if b <= a:
                continue
            vs, ws = panel_rule(np.array([a, b]), q)
            total = 0.0 + 0.0j
            for v, w in zip(vs, ws):
                y = csum[i] + h * v
                pts = np.vstack([x + B @ (y + z) for z in nu.atoms] + [x + B @ y])
                vals = sg.at(1.0 - v, pts)
                total += w * np.sum((vals[:-1] - vals[-1]) * wz)
            out[i] = total
        return out

    comp = compensator_increments(nodes)
    if check_nodes:
        comp2 = compensator_increments(2 * nodes)
        if abs(comp2.sum() - comp.sum()) > 1e-8:
            warnings.warn(
                f"compensator quadrature moved by {abs(comp2.sum() - comp.sum()):.2e} "
                f"when doubling nodes",
                QuadratureNodesInsufficient,
                stacklevel=2,
            )
        comp = comp2

    comp_at = np.cumsum(comp)  # compensator value at jump times then at 1
    jump_cum = np.cumsum(deltas) if deltas.size else np.zeros(0, dtype=complex)
    values = np.empty(path.times.size + 2, dtype=complex)
    lefts = np.empty(path.times.size, dtype=complex)
    values[0] = 0.0
    for i in range(path.times.size):
        lefts[i] = (jump_cum[i - 1] if i else 0.0) - comp_at[i]
        values[i + 1] = jump_cum[i] - comp_at[i]
    values[-1] = (jump_cum[-1] if deltas.size else 0.0) - comp_at[-1]
    times = np.concatenate([[0.0], path.times, [1.0]])
    return MartingaleTrace(path=path, kind="general", times=times, values=values,
                           left_values=lefts, jump_deltas=deltas, head=0.0)


def check_subordination(trace_f: MartingaleTrace, trace_g: MartingaleTrace,
                        rel_slack: float = 1e-12):
    """Per-jump domination |dG|^2 <= |dF|^2 and nonnegativity of
    [F,F] - [G,G] including the |F_0|^2 head.  Returns (ok, max_violation);
    rel_slack absorbs floating-point roundoff only.
    """
    if trace_f.path is not trace_g.path or not np.array_equal(trace_f.times, trace_g.times):
        raise TraceMismatch("traces come from different paths")
    df2 = np.abs(trace_f.jump_deltas) ** 2
    dg2 = np.abs(trace_g.jump_deltas) ** 2
    slack = rel_slack * (1.0 + df2)
    per_jump = dg2 - df2
    running = trace_g.qv - trace_f.qv
    worst = max(
        float(np.max(per_jump - slack, initial=-np.inf)),
        float(np.max(running - rel_slack * (1.0 + trace_f.qv), initial=-np.inf)),
    )
    return worst <= 0.0, max(worst, 0.0)


# ---------------------------------------------------------------------------
# blocked bulk estimates
# ---------------------------------------------------------------------------


def _mode_band(N, *hats, tol=1e-15):
    mags = sum(np.abs(h) for h in hats)
    keep = mags > tol * mags.max()
    keep |= keep[negate_index(N)]
    return np.flatnonzero(keep)


def _check_fields(f: SampledField, g: SampledField):
    if f.d != g.d or tuple(f.N) != tuple(g.N) or not np.allclose(f.L, g.L):
        raise GridMismatch("f and g must share one grid")


def _sub_slices(d, stride):
    return (slice(None),) + tuple(slice(None, None, stride) for _ in range(d))


def mean_and_se(vals: np.ndarray):
    """Sample mean and componentwise standard error of the mean."""
    m = vals.mean()
    if vals.size <= 1:
        return (complex(m), 0.0 + 0.0j) if np.iscomplexobj(vals) else (float(m), 0.0)
    rt = np.sqrt(vals.size)
    if np.iscomplexobj(vals):
        return complex(m), complex(vals.real.std(ddof=1) / rt
                                   + 1j * vals.imag.std(ddof=1) / rt)
    return float(m), float(vals.std(ddof=1) / rt)


def run_cpp_paths(f: SampledField, g: SampledField, data: LevyData, mod: Modulator,
                  n_paths: int, seed: int, *, sub_stride: int = 4,
                  block_size: int = None,
                  fend_powers=(), gend_powers=(), keep_x0: bool = True):
    """Shared blocked driver: per-path statistics of the paired martingales.

    Returns a dict with per-path arrays:
      pair      integral of F1(x) G1(x) over the x-subgrid
      cov       integral of sum_jumps dF(x) dG(x)  (covariation route)
      fend_pow  {p: integral |f(x + A Y1)|^p}
      gend_pow  {q: integral |g(x + B Y1)|^q}
      g1_pow    {q: integral |G1(x)|^q}
      f1_x0/g1_x0  F1 and G1 at the central subgrid point
      njumps    jump counts
    plus meta entries (f0_x0, dV_sub, band size).
    """
    validate(data, mod)
    _check_fields(f, g)
    nu = data.nu
    if not isinstance(nu, AtomsMeasure):
        raise MeasureValidationError("bulk estimation needs a finite atomic measure")
    lam = nu.total_mass
    if not lam > 0.0:
        raise MeasureValidationError("bulk estimation needs |nu| > 0")

    d, L, N = f.d, f.L, f.N
    Nflat = int(np.prod(N))
    fhat = transform_forward(f).ravel()
    ghat = transform_forward(g).ravel()
    band = _mode_band(N, fhat, ghat)
    Xi = freq_grid(L, N, d)[band]
    A, B = data.A, data.B
    zA = Xi @ A
    zB = Xi @ B
    psiA = np.atleast_1d(psi(data, -zA))
    psiB = np.atleast_1d(psi(data, -zB))
    _, h = drift_reduce(data)
    cdA = zA @ h
    cdB = zB @ h
    phi_atoms = np.asarray(_phi_values_at_atoms(mod, nu), dtype=complex)
    # compensator atom sum S_k = sum_m phi_m w_m (e^{-i(zB_k, z_m)} - 1)
    S = np.zeros(band.size, dtype=complex)
    chunk = max(1, int(2e6) // max(band.size, 1))
    for m0 in range(0, nu.atoms.shape[0], chunk):
        blockz = nu.atoms[m0:m0 + chunk]
        ph = np.exp(-1j * (blockz @ zB.T))
        S += ((ph - 1.0) * (phi_atoms[m0:m0 + chunk] * nu.weights[m0:m0 + chunk])[:, None]).sum(axis=0)

    if block_size is None:
        block_size = max(16, min(1024, (1 << 24) // Nflat))
    sl = _sub_slices(d, sub_stride)
    dV_sub = float(np.prod(np.asarray(f.dx) * sub_stride))

    out = {
        "pair": np.zeros(n_paths, dtype=complex),
        "cov": np.zeros(n_paths, dtype=complex),
        "f1_x0": np.zeros(n_paths, dtype=complex),
        "g1_x0": np.zeros(n_paths, dtype=complex),
        "gend_x0": np.zeros(n_paths, dtype=complex),
        "njumps": np.zeros(n_paths, dtype=int),
        "fend_pow": {p: np.zeros(n_paths) for p in fend_powers},
        "gend_pow": {q: np.zeros(n_paths) for q in gend_powers},
        "g1_pow": {q: np.zeros(n_paths) for q in gend_powers},
    }
    x0_idx = tuple((n // sub_stride) // 2 for n in N)

    for b0 in range(0, n_paths, block_size):
        P = min(block_size, n_paths - b0)
        times_l, marks_l = [], []
        offsets = np.zeros(P + 1, dtype=np.int64)
        for i in range(P):
            pth = simulate_cpp(nu, seed, b0 + i)
            times_l.append(pth.times)
            marks_l.append(pth.marks)
            offsets[i + 1] = offsets[i] + pth.times.size
        times = np.concatenate(times_l) if times_l else np.zeros(0)
        marks = np.concatenate(marks_l).astype(np.int64) if marks_l else np.zeros(0, dtype=np.int64)
        out["njumps"][b0:b0 + P] = np.diff(offsets)

        cF1, cG1, cGend, covF, covG = cpp_pair_coeffs(
            times, marks, offsets, nu.atoms, phi_atoms,
            fhat[band], ghat[band], psiA, psiB, zA, zB, cdA, cdB, S,
        )

        def to_values(coeffs):
            full = np.zeros((coeffs.shape[0], Nflat), dtype=complex)
            full[:, band] = coeffs
            return values_from_coefficients(full, L, N, d)[sl]

        F1v = to_values(cF1)
        G1v = to_values(cG1)
        axes = tuple(range(1, d + 1))
        out["pair"][b0:b0 + P] = (F1v * G1v).sum(axis=axes) * dV_sub
        if keep_x0:
            sel = (slice(None),) + x0_idx
            out["f1_x0"][b0:b0 + P] = F1v[sel]
            out["g1_x0"][b0:b0 + P] = G1v[sel]
        for p in fend_powers:
            out["fend_pow"][p][b0:b0 + P] = (np.abs(F1v) ** p).sum(axis=axes) * dV_sub
        if gend_powers:
            Gendv = to_values(cGend)
            if keep_x0:
                out["gend_x0"][b0:b0 + P] = Gendv[(slice(None),) + x0_idx]
            for q in gend_powers:
                out["gend_pow"][q][b0:b0 + P] = (np.abs(Gendv) ** q).sum(axis=axes) * dV_sub
                out["g1_pow"][q][b0:b0 + P] = (np.abs(G1v) ** q).sum(axis=axes) * dV_sub

        if times.size:
            dFv = to_values(covF)
            dGv = to_values(covG)
            prod = (dFv * dGv).sum(axis=tuple(range(1, d + 1))) * dV_sub
            path_of_jump = np.repeat(np.arange(P), np.diff(offsets))
            np.add.at(out["cov"], b0 + path_of_jump, prod)

    x0_point = np.array([ax[::sub_stride][x0_idx[i]] for i, ax in
                         enumerate(SampledField(d=d, L=L, N=N,
                                                values=np.zeros(N)).space_points())])
    out["meta"] = {
        "band_size": int(band.size),
        "dV_sub": dV_sub,
        "x0_point": x0_point,
        "f0_x0": semigroup_eval(f, A, data, 1.0, x0_point),
    }
    return out


def within_sigmas(estimate: complex, stderr: complex, reference: complex,
                  sigmas: float = 3.0, floor_rel: float = 1e-9) -> bool:
    """Componentwise |estimate - reference| <= sigmas * stderr.

    Components that are pure roundoff (e.g. the real part of a pairing
    that is imaginary pathwise) get an absolute floor tied to the overall
    magnitude, so zero-variance zero components compare sanely.
    """
    scale = max(abs(estimate), abs(reference), 1e-300)
    floor = floor_rel * scale
    dr = abs(estimate.real - reference.real)
    di = abs(estimate.imag - reference.imag)
    return dr <= sigmas * max(stderr.real, floor) and \
        di <= sigmas * max(stderr.imag, floor)


@dataclass(frozen=True)
class PairingEstimate:
    """Monte-Carlo value of the bilinear pairing, via two routes."""

    estimate: complex        # mean of per-path integral F1 G1 dx
    stderr: complex          # componentwise standard errors
    cov_estimate: complex    # covariation route
    cov_stderr: complex
    diff_stderr: complex     # SE of the per-path difference of the two routes
    n_paths: int

    def agrees_with(self, reference: complex, sigmas: float = 3.0) -> bool:
        return within_sigmas(self.estimate, self.stderr, reference, sigmas)

    def routes_agree(self, sigmas: float = 3.0) -> bool:
        return within_sigmas(self.estimate - self.cov_estimate, self.diff_stderr,
                             0.0, sigmas)


def estimate_pairing(f: SampledField, g: SampledField, data: LevyData,
                     mod: Modulator, n_paths: int, seed: int, *,
                     sub_stride: int = 4, block_size: int = None) -> PairingEstimate:
    """MC estimate of the pairing integral E F1(x) G1(x) dx (no conjugation),
    with the per-jump covariation route computed on the same paths."""
    stats = run_cpp_paths(f, g, data, mod, n_paths, seed, sub_stride=sub_stride,
                          block_size=block_size, keep_x0=False)
    est, se = mean_and_se(stats["pair"])
    cest, cse = mean_and_se(stats["cov"])
    _, dse = mean_and_se(stats["pair"] - stats["cov"])
    return PairingEstimate(estimate=est, stderr=se, cov_estimate=cest,
                           cov_stderr=cse, diff_stderr=dse, n_paths=n_paths)


def spectral_pairing_value(f: SampledField, g: SampledField, data: LevyData,
                           mod: Modulator, u: float = 1.0) -> complex:
    """Deterministic reference: the grid pairing with the q-form symbol."""
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=data, mod=mod, u=u),
                         L=f.L[0], N=f.N)
    return pairing(grid, f, g).spectral


# ---------------------------------------------------------------------------
# Brownian branch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrownianEstimate:
    estimate: complex
    stderr: complex
    cov_estimate: complex
    cov_stderr: complex
    n_paths: int
    steps: int
    qv_disc: float = None   # mean discretized [G,G]_1 at x = 0
    qv_quad: float = None   # mean time-quadrature of the QV integrand


def brownian_pairing(f: SampledField, g: SampledField, A, B, Kmat,
                     n_paths: int, steps: int, seed: int, *,
                     var_scale: float = 0.5, sub_stride: int = 4,
                     block_size: int = None,
                     richardson: bool = True, want_qv: bool = False) -> BrownianEstimate:
    """Euler estimate of the Gaussian-branch pairing on shared Brownian paths.

    Both stochastic integrals are accumulated along one path per draw; the
    endpoint route integrates F1 G1 over the x-subgrid and the covariation
    route uses the time-quadrature of the integrand product (full-box
    x-integral via the frequency lattice).  With var_scale = 1/2 the
    matching spectral symbol is the Gaussian form at the same scale.
    With richardson, a run at steps//2 must agree within one standard
    error, otherwise StepTooCoarse is raised.
    """
    from .symbols import _check_contraction

    _check_fields(f, g)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Kmat = np.atleast_2d(np.asarray(Kmat, dtype=complex))
    _check_contraction(Kmat)
    if steps < 2:
        raise ValueError("need at least 2 time steps")

    d, L, N = f.d, f.L, f.N
    n = A.shape[1]
    Nflat = int(np.prod(N))
    fhat = transform_forward(f).ravel()
    ghat = transform_forward(g).ravel()
    band = _mode_band(N, fhat, ghat)
    neg = negate_index(N)
    Xi = freq_grid(L, N, d)[band]
    zA = Xi @ A
    zB = Xi @ B
    # band frequencies are 2 pi kint / L per axis; the kernel takes phases on that lattice
    turns = 2.0 * np.pi / np.asarray(L)
    kint = np.rint(Xi / turns).astype(np.int64)
    h = 1.0 / steps
    v_times = np.arange(steps) * h
    EA = np.exp(-np.outer(1.0 - v_times, var_scale * (zA * zA).sum(axis=1)))
    EB = np.exp(-np.outer(1.0 - v_times, var_scale * (zB * zB).sum(axis=1)))
    dxi_norm = float(np.prod(turns)) / (2.0 * np.pi) ** d

    KzB = zB @ Kmat.T                      # rows K B^T xi_k
    aKb = np.einsum("kj,kj->k", zA.astype(complex), KzB)
    ghat_neg = ghat[neg][band]
    sigma2 = 2.0 * var_scale
    U = sigma2 * aKb * fhat[band] * ghat_neg * dxi_norm
    GB = -1j * ghat[band][:, None] * KzB

    if block_size is None:
        block_size = max(8, min(256, (1 << 22) // max(steps, 1)))
    sl = _sub_slices(d, sub_stride)
    dV_sub = float(np.prod(np.asarray(f.dx) * sub_stride))
    axes = tuple(range(1, d + 1))

    pair_stats = np.zeros(n_paths, dtype=complex)
    cov_stats = np.zeros(n_paths, dtype=complex)
    qv_d = np.zeros(n_paths)
    qv_q = np.zeros(n_paths)
    sig = np.sqrt(sigma2 * h)

    for b0 in range(0, n_paths, block_size):
        P = min(block_size, n_paths - b0)
        dW = np.empty((P, steps, n))
        for i in range(P):
            dW[i] = path_stream(seed, b0 + i).standard_normal((steps, n)) * sig
        cF1, cG1, Tcov, qd, qq = brownian_accumulate(
            dW, EA, EB, U, GB, kint, turns[:, None] * A, turns[:, None] * B,
            fhat[band], dxi_norm, want_qv=want_qv)
        full = np.zeros((P, Nflat), dtype=complex)
        full[:, band] = cF1
        F1v = values_from_coefficients(full, L, N, d)[sl]
        full[:, band] = cG1
        G1v = values_from_coefficients(full, L, N, d)[sl]
        pair_stats[b0:b0 + P] = (F1v * G1v).sum(axis=axes) * dV_sub
        cov_stats[b0:b0 + P] = Tcov
        qv_d[b0:b0 + P] = qd
        qv_q[b0:b0 + P] = qq

    est, se = mean_and_se(pair_stats)
    cest, cse = mean_and_se(cov_stats)
    result = BrownianEstimate(
        estimate=est, stderr=se, cov_estimate=cest, cov_stderr=cse,
        n_paths=n_paths, steps=steps,
        qv_disc=float(qv_d.mean()) if want_qv else None,
        qv_quad=float(qv_q.mean()) if want_qv else None,
    )
    if richardson and steps >= 4:
        coarse = brownian_pairing(f, g, A, B, Kmat, n_paths, steps // 2, seed,
                                  var_scale=var_scale, sub_stride=sub_stride,
                                  block_size=block_size,
                                  richardson=False, want_qv=False)
        gap = abs(result.estimate - coarse.estimate)
        joint = np.hypot(abs(result.stderr), abs(coarse.stderr))
        if gap > max(joint, 1e-14):
            raise StepTooCoarse(
                f"halving the step moved the estimate by {gap:.3e} "
                f"(> joint standard error {joint:.3e})"
            )
    return result


def gaussian_spectral_value(f: SampledField, g: SampledField, A, B, Kmat,
                            var_scale: float = 0.5) -> complex:
    """Grid pairing against the Gaussian symbol at the same variance scale."""
    grid = evaluate_grid(
        SymbolSpec(variant="gaussian", A=np.atleast_2d(A), B=np.atleast_2d(B),
                   K=np.atleast_2d(Kmat), var_scale=var_scale),
        L=f.L[0], N=f.N)
    return pairing(grid, f, g).spectral
