"""Periodic-grid realization of the multiplier and the probing harness.

Fields are complex samples on the uniform grid over [-L/2, L/2)^d.  The
forward transform approximates fhat(xi) = I f(x) e^{+i(xi,x)} dx by the
trapezoid/DFT rule; the inverse is exact on the grid, so round trips are
machine-precision.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, LevyMultError, ShapeMismatch
from .grids import Grid
from .levy import LevyData, psi
from .symbols import SymbolGrid


@dataclass(frozen=True, eq=False)
class SampledField(Grid):
    """Complex samples f(x_j) on the uniform periodic grid."""

    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        vals = np.asarray(self.values, dtype=complex).reshape(self.N)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "values", vals)


def field_from_function(fn, L, N, d) -> SampledField:
    grid = Grid(d, L, N)
    mesh = np.meshgrid(*grid.space_axes, indexing="ij")
    return SampledField(d=grid.d, L=grid.L, N=grid.N,
                        values=np.asarray(fn(*mesh), dtype=complex))


def gaussian_bump(L, N, d, center=None, width=1.0, phase_freq=None,
                  amplitude=1.0) -> SampledField:
    """exp(-|x-c|^2/(2 w^2) + i (omega, x)); keep the support well inside the box."""
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    omega = np.zeros(d) if phase_freq is None else np.asarray(phase_freq, dtype=float)
    for name, v in (("center", center), ("phase_freq", omega)):
        if v.shape != (d,):
            raise ShapeMismatch(f"{name} has shape {v.shape}, the grid has dimension {d}")

    def fn(*mesh):
        q = sum((m - c) ** 2 for m, c in zip(mesh, center))
        ph = sum(w * m for m, w in zip(mesh, omega))
        return amplitude * np.exp(-q / (2.0 * width**2) + 1j * ph)

    return field_from_function(fn, L, N, d)


def transform_forward(f: SampledField) -> np.ndarray:
    """fhat(xi_k) in FFT index order; xi_k = 2 pi k / L."""
    scale = f.cell_volume * float(f.size)
    return scale * f.phases * np.fft.ifftn(f.values)


def transform_inverse(fhat: np.ndarray, grid: Grid) -> SampledField:
    vals = np.fft.fftn(grid.phases * np.asarray(fhat, dtype=complex).reshape(grid.N))
    return SampledField(d=grid.d, L=grid.L, N=grid.N, values=vals * grid.dxi_norm)


def values_from_coefficients(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid samples of (2pi)^{-d} sum_k c_k e^{-i(xi_k, x)} dxi^d.

    coeffs holds the flattened frequency lattice (FFT order) in its last
    axis; leading axes are batch dimensions.  Returns batch + grid shape.
    """
    c = np.asarray(coeffs, dtype=complex)
    batch = c.shape[:-1]
    c = c.reshape(batch + grid.N)
    axes = tuple(range(len(batch), len(batch) + grid.d))
    return np.fft.fftn(grid.phases * c, axes=axes) * grid.dxi_norm


def _check_integer(name: str, value, low: int, why: str = ""):
    """ValueError naming `name` unless value is an integer >= low."""
    if not (isinstance(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} = {value!r} is not an integer >= {low}{why}")


def _check_seed(seed):
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ValueError(f"seed = {seed!r} is not an integer in [0, 2**64): "
                         "it keys the uint64 Philox streams")


def _check_compat(a, b):
    if a.d != b.d or tuple(a.N) != tuple(b.N) or not np.allclose(a.L, b.L):
        raise GridMismatch(
            f"incompatible grids: ({a.d}, {a.L}, {a.N}) vs ({b.d}, {b.L}, {b.N})"
        )


def apply_multiplier(m: SymbolGrid, f: SampledField) -> SampledField:
    """Frequency-wise product: the operator M with symbol m applied to f."""
    _check_compat(m, f)
    fhat = transform_forward(f)
    return transform_inverse(m.values * fhat, f)


@dataclass(frozen=True)
class PairingResult:
    spatial: complex
    spectral: complex


def pairing(m: SymbolGrid, f: SampledField, g: SampledField) -> PairingResult:
    """The bilinear form I (Mf) g dx, evaluated two ways:

    spatially as sum (Mf)(x) g(x) dx^d and spectrally as
    (2pi)^{-d} sum m(xi) fhat(xi) ghat(-xi) dxi^d.  The two agree to
    roundoff by discrete Parseval; disagreement beyond 1e-10 raises.
    """
    _check_compat(m, f)
    _check_compat(m, g)
    mf = apply_multiplier(m, f)
    spatial = complex(np.sum(mf.values * g.values) * f.cell_volume)

    fhat = transform_forward(f).ravel()
    ghat = transform_forward(g).ravel()
    spectral = complex(np.sum(m.flat * fhat * ghat[f.neg]) * f.dxi_norm)

    # floor at the natural bilinear scale so pairings that vanish by
    # parity compare roundoff against roundoff sanely
    norm_scale = float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.cell_volume)
                       * np.sqrt(np.sum(np.abs(g.values) ** 2) * g.cell_volume)
                       * max(m.max_abs, 1.0))
    scale = max(abs(spatial), abs(spectral), 1e-4 * norm_scale, 1e-30)
    if abs(spatial - spectral) > 1e-10 * scale:
        raise LevyMultError(
            f"pairing routes disagree: {spatial} vs {spectral}"
        )
    return PairingResult(spatial=spatial, spectral=spectral)


def lp_norm(f: SampledField, p: float) -> float:
    """Discretized L^p norm (sum |f(x_j)|^p dx^d)^(1/p)."""
    return float((np.sum(np.abs(f.values) ** p) * f.cell_volume) ** (1.0 / p))


def semigroup_eval(f: SampledField, A, data: LevyData, s: float, x):
    """P_s^A f at arbitrary (possibly off-grid) points:

        (2pi)^{-d} sum_k fhat(xi_k) e^{s psi(-A^T xi_k)} e^{-i(xi_k, x)} dxi^d.

    x may be a single d-vector or an (M, d) batch.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    X = np.asarray(x, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    fhat = transform_forward(f).ravel()
    expo = np.exp(s * np.atleast_1d(psi(data, -(f.xi @ A))))
    weights = fhat * expo * f.dxi_norm
    vals = np.exp(-1j * (X @ f.xi.T)) @ weights
    return complex(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# operator-norm probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Best lower-bound ratio found for ||Mf||_p / ||f||_p versus the bound."""

    p: float
    bound: float
    best_ratio: float
    best_descriptor: str
    trials: int
    seed: int
    passed: bool


def p_star_minus_one(p: float) -> float:
    return max(p - 1.0, 1.0 / (p - 1.0))


def _fields(coeffs, m: SymbolGrid) -> np.ndarray:
    """[f, Mf] on the grid for coefficients c (flat lattice in the last
    axis): values_from_coefficients of [c, m c]."""
    return values_from_coefficients(np.stack([coeffs, m.flat * coeffs]), m)


def _lp_ratios(fields, m: SymbolGrid, ps) -> np.ndarray:
    """||Mf||_p / ||f||_p (0 where f = 0) from fields = [f, Mf] (_fields),
    each a (batch,) + grid-shape stack of samples, one column per p;
    non-finite samples raise ValueError."""
    if not np.all(np.isfinite(fields)):
        raise ValueError("field samples must be finite")
    absf, axes = np.abs(fields), tuple(range(2, m.d + 2))
    out = np.empty((fields.shape[1], len(ps)))
    for j, p in enumerate(ps):
        nf, nmf = (np.sum(absf ** p, axis=axes) * m.cell_volume) ** (1.0 / p)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[:, j] = np.where(nf == 0.0, 0.0, nmf / nf)
    return out


def _unit_roots(grid: Grid) -> tuple:
    """Per axis, the N-th roots of unity e^{-2 pi i r / N}, r = 0..N-1, from
    the signed frequencies r/N - [r >= N/2] (fftfreq), so that no angle
    exceeds pi in size."""
    return tuple(np.exp(-2j * np.pi * np.fft.fftfreq(n)) for n in grid.N)


def _plane_wave(grid: Grid, roots: tuple, idx) -> np.ndarray:
    """values_from_coefficients of a unit coefficient at flat index idx:
    dxi_norm (-1)^(k_1+...+k_d) prod_ax e^{-2 pi i k_ax j_ax / N_ax}, one
    outer product of per-axis rows of the roots table (_unit_roots)."""
    ks = np.unravel_index(idx, grid.N)
    waves = [r[k * np.arange(n) % n] for r, k, n in zip(roots, ks, grid.N)]
    waves[0] = grid.dxi_norm * grid.phases.flat[idx] * waves[0]
    return functools.reduce(np.multiply.outer, waves)


def _trig_poly_coeffs(rng, grid: Grid):
    d = grid.d
    coeffs = np.zeros(grid.N, dtype=complex)
    band = rng.integers(2, max(3, min(grid.N) // 8))
    slices = tuple(slice(0, band + 1) for _ in range(d))
    # fill low modes (positive and negative wings) with complex Gaussians
    def fill(sign_slices):
        block = rng.standard_normal(tuple(band + 1 for _ in range(d))) \
            + 1j * rng.standard_normal(tuple(band + 1 for _ in range(d)))
        coeffs[sign_slices] += block
    fill(slices)
    for ax in range(d):
        neg = list(slices)
        neg[ax] = slice(-band - 1, None)
        fill(tuple(neg))
    return coeffs


def _bump_coeffs(rng, grid: Grid):
    """transform_forward of a randomly placed, scaled and modulated
    gaussian_bump, built per axis: the bump is a product of 1-D factors, so
    its transform is the outer product of their 1-D transforms
    dx N (-1)^k ifft(factor).  In 1-D these are gaussian_bump's and
    transform_forward's own expressions, so the coefficients are bitwise
    theirs."""
    Lr = np.asarray(grid.L)
    center = rng.uniform(-0.125, 0.125, size=grid.d) * Lr
    width = rng.uniform(0.3, 2.0)
    omega = rng.integers(-8, 9, size=grid.d) * 2.0 * np.pi / Lr
    factors = []
    for x, c, w, dx, n in zip(grid.space_axes, center, omega, grid.dx, grid.N):
        fac = np.exp(-(x - c) ** 2 / (2.0 * width**2) + 1j * (w * x))
        factors.append(dx * n * (-1.0) ** np.arange(n) * np.fft.ifft(fac))
    return functools.reduce(np.multiply.outer, factors)


def norm_probe(m: SymbolGrid, p, trials: int = 500, seed: int = 0,
               ascent_steps: int = 200):
    """Randomized lower-bound search for the operator norm on L^p.

    Half the trials are random trigonometric polynomials built directly in
    frequency space, half are randomly placed/scaled Gaussian bumps with
    random phase modulation, whose coefficients are built per axis from 1-D
    transforms.  The trials do not depend on p: one pass builds and
    transforms them in batches of at most 2^16 grid points and scores them
    for every p.  For each p the best one is then refined by coordinate
    ascent on its frequency coefficients: its f and Mf are transformed once,
    and a step that changes the coefficient at xi_k by delta adds delta and
    m(xi_k) delta times the plane wave of xi_k to them, with no further
    transform; a proposal is kept only if it raises the ratio.  This is a
    lower-bound method: it can falsify the bound, never certify it.
    Deterministic for a fixed seed (per-trial counter-based streams).  A
    scalar p gives one ProbeReport, a sequence one report per p, in order.
    Raises ValueError, naming the input, unless 1 < p < inf, trials is an
    integer >= 1, ascent_steps an integer >= 0 and seed an integer in
    [0, 2**64).
    """
    ps = [float(v) for v in np.ravel(p)]
    if not ps or not all(1.0 < v < np.inf for v in ps):
        raise ValueError(f"p = {p!r} must satisfy 1 < p < inf")
    _check_integer("trials", trials, 1)
    _check_integer("ascent_steps", ascent_steps, 0)
    _check_seed(seed)
    seed = int(seed)  # a numpy integer would wrap in the key shift below
    best = [(-1.0, None, None)] * len(ps)  # (ratio, trial, coefficients) per p
    batch = max(1, 2**16 // m.size)
    for start in range(0, trials, batch):
        stack = []
        for t in range(start, min(start + batch, trials)):
            rng = np.random.default_rng(np.random.Philox(key=(seed << 16) + t))
            stack.append((_bump_coeffs if t % 2 else _trig_poly_coeffs)(rng, m).ravel())
        ratios = _lp_ratios(_fields(np.array(stack), m), m, ps)
        ratios[np.isnan(ratios)] = -np.inf  # a NaN ratio never wins
        for j, i in enumerate(np.argmax(ratios, axis=0)):  # first maximum per p
            if ratios[i, j] > best[j][0]:
                best[j] = (ratios[i, j], start + i, stack[i])

    roots = _unit_roots(m)
    reports = []
    for pj, (ratio, t, coeffs) in zip(ps, best):
        if coeffs is None:
            raise ValueError(f"no trial gave a finite L^{pj} ratio")
        desc = f"{'gaussian-bump' if t % 2 else 'trig-poly'} trial={t}"
        ratio = float(ratio)
        fields = _fields(coeffs, m)
        rng = np.random.default_rng(np.random.Philox(key=(seed << 16) + trials + 1))
        scale = np.abs(coeffs).max()
        live = np.flatnonzero(np.abs(coeffs) > 1e-12 * scale)
        for _ in range(ascent_steps):
            idx = live[rng.integers(live.size)] if live.size else rng.integers(coeffs.size)
            delta = 0.25 * scale * (rng.standard_normal() + 1j * rng.standard_normal())
            # adding delta to coefficient idx adds delta and m[idx] delta
            # times that coefficient's plane wave to f and Mf
            proposal = fields + np.multiply.outer([delta, m.flat[idx] * delta],
                                                  _plane_wave(m, roots, idx))
            step = float(_lp_ratios(proposal[:, None], m, (pj,))[0, 0])
            if step > ratio:
                ratio, desc, fields = step, desc + "+ascent", proposal
        bound = p_star_minus_one(pj)
        reports.append(ProbeReport(p=pj, bound=bound, best_ratio=ratio, best_descriptor=desc,
                                   trials=trials, seed=seed, passed=ratio <= bound * (1.0 + 5e-3)))
    return reports[0] if np.ndim(p) == 0 else reports
