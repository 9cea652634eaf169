"""Monte-Carlo verification of the martingale construction.

One engine runs every compound-Poisson check.  F1, G1 and each jump's dF,
dG are trig polynomials on one band of the frequency lattice, so the box
integrals of F1 G1 and dF dG are Parseval sums over the band, and point
values are sums against the point's phases.  Per block of paths the kernel
(which forms the compensator from its own jump table and the atom masses)
returns the endpoint coefficients, each path's two Parseval sums and, for
the subordination check, each jump's dF, dG at its point; only the L^p
powers of F1 are taken on the x-grid, at every SUB_STRIDE-th point per axis,
from one transform of the band coefficients folded onto that sub-grid
(_subgrid_powers), so no full-grid transform is made.  The Brownian engine
shares the band set-up; its kernel returns each path's Parseval sum itself,
so no band coefficients leave it, and its step-bias gate takes the coarse
Euler level (steps/2, on the fine path's increments summed in pairs) inside
the same kernel pass.  All randomness flows from one master seed through
counter-based per-path streams (Philox keyed by (seed, path index)), so no
result depends on how the paths are grouped (the Brownian ones up to the
roundoff of its band contraction), and each engine sizes its own blocks
from a budget of values, CPP_BLOCK_VALUES or BROWNIAN_BLOCK_VALUES.  Both
samplers build one generator per block and reset its state to each path's
key, drawing what a fresh generator per path draws.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MeasureValidationError, ShapeMismatch, StepTooCoarse
from .grids import Grid
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
from .spectral import (
    SampledField,
    _check_compat,
    _check_integer,
    _check_seed,
    pairing,
    semigroup_eval,
    transform_forward,
    values_from_coefficients,
)
from .symbols import SymbolSpec, _gaussian_maps, evaluate_grid

SUB_STRIDE = 4   # the L^p powers are summed over every 4th x-grid point per axis
# values per block of paths: grid points x paths for the compound-Poisson
# engine, steps x paths for the Brownian one (each within fixed path bounds)
CPP_BLOCK_VALUES = 1 << 24
BROWNIAN_BLOCK_VALUES = 1 << 22

# ---------------------------------------------------------------------------
# counter-based streams and path simulation
# ---------------------------------------------------------------------------


def path_stream(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one path: Philox keyed by (seed, index)."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.default_rng(np.random.Philox(key=key))


def _path_streams(seed: int, first: int, count: int):
    """Yield a generator for each of paths first .. first + count - 1 that
    draws what path_stream(seed, i) draws.  One Philox generator serves every
    path: before each yield its state is reset to counter 0, key (seed, i)
    and an empty buffer."""
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i in range(count):
        key[1] = first + i
        rng.bit_generator.state = state
        yield rng


def _sample_paths(nu: AtomsMeasure, seed: int, first: int, count: int):
    """Jump times and marks of paths first .. first + count - 1.

    Path i draws from its stream of _path_streams: the count Poisson(|nu|),
    then c uniforms whose order statistics are the times, then c uniforms
    whose quantiles under nu/|nu| are the marks; one random(2 c) call draws
    both uniform runs.  Returns (times, marks, offsets): the jumps of path
    first + i are rows offsets[i]:offsets[i+1].
    """
    lam = nu.total_mass
    cum = np.cumsum(nu.weights) / lam
    counts = np.zeros(count, dtype=np.int64)
    draws = []
    for i, rng in enumerate(_path_streams(seed, first, count)):
        c = rng.poisson(lam)
        counts[i] = c
        draws.append(rng.random(2 * c))
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    path = np.repeat(np.arange(count), counts)
    at = np.arange(offsets[-1]) + offsets[path]   # first-half position in the draws
    u = np.concatenate(draws)
    times = u[at]
    times = times[np.lexsort((times, path))]      # sorted within each path
    marks = np.minimum(np.searchsorted(cum, u[at + counts[path]], side="right"),
                       nu.weights.size - 1)
    return times, marks, offsets


# ---------------------------------------------------------------------------
# blocked bulk estimates
# ---------------------------------------------------------------------------


def _band(f: SampledField, g: SampledField, A, B):
    """Set-up shared by the compound-Poisson and the Brownian engines.

    Returns the transforms fhat, ghat (flat, FFT order), the band of modes
    where |fhat| + |ghat| exceeds 1e-15 of its largest value, closed under
    negation, the position in the band of each band mode's negative, and
    the band frequencies mapped by A and B (rows xi_k A, xi_k B).
    """
    _check_compat(f, g)
    if A.shape[0] != f.d or B.shape[0] != f.d:
        raise ShapeMismatch(f"A {A.shape} and B {B.shape} need {f.d} rows, the fields' dimension")
    fhat = transform_forward(f).ravel()
    ghat = transform_forward(g).ravel()
    mags = np.abs(fhat) + np.abs(ghat)
    keep = mags > 1e-15 * mags.max()
    keep |= keep[f.neg]
    band = np.flatnonzero(keep)
    Xi = f.xi[band]
    return fhat, ghat, band, np.searchsorted(band, f.neg[band]), Xi @ A, Xi @ B


def _point_phases(f: SampledField, band, x):
    """dxi/(2pi)^d e^{-i(xi_k, x)} on the band: band coefficients @ this = values
    at x, which needs f.d coordinates (ShapeMismatch) and must be finite (ValueError)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != f.d:
        raise ShapeMismatch(f"x has {x.size} coordinates; the fields have {f.d}")
    if not np.isfinite(x).all():
        raise ValueError(f"x = {x.tolist()} is not finite")
    return f.dxi_norm * np.exp(-1j * (f.xi[band] @ x))


def _subgrid_powers(f: SampledField, band, coeffs, powers):
    """{p: integral |values|^p} per row of band coefficients, summed over every
    SUB_STRIDE-th point of the x-grid per axis (the point x_0 alone on an axis
    with N < SUB_STRIDE), each weighing L / (points per axis); the powers are
    no trig polynomials on the band.  At x_{SUB_STRIDE l} the phase
    e^{-i(xi_k, x)} = (-1)^k e^{-2 pi i (k, l) / M} depends on k mod M only,
    M = max(1, N / SUB_STRIDE) per axis, so the signed coefficients fold onto
    the M-point grid, whose own transform gives the values there."""
    if not powers:
        return {}
    sub = Grid(f.d, f.L, [max(1, n // SUB_STRIDE) for n in f.N])
    kint = f.k[band]
    cell = np.ravel_multi_index((kint % sub.N).T, sub.N)
    # (-1)^k, and the sub-grid's (-1)^(k mod M) that values_from_coefficients undoes
    sign = (-1.0) ** kint.sum(axis=1) * sub.phases.ravel()[cell]
    folded = np.zeros((coeffs.shape[0], sub.size), dtype=complex)
    np.add.at(folded, (slice(None), cell), coeffs * sign)
    mods = np.abs(values_from_coefficients(folded, sub))
    axes = tuple(range(1, f.d + 1))
    return {p: (mods ** p).sum(axis=axes) * sub.cell_volume for p in powers}


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


def _check_n_paths(n_paths):
    _check_integer("n_paths", n_paths, 2, ": a standard error needs two paths")


def _cpp_blocks(f: SampledField, g: SampledField, data: LevyData, mod: Modulator,
                n_paths: int, seed: int, x=None):
    """Set-up and block loop of the compound-Poisson engine.

    Returns the frequency band (flat indices into the grid) and a generator
    that yields (b0, offsets, out) per block of paths starting at path b0:
    path b0 + i has offsets[i+1] - offsets[i] jumps, and out is
    cpp_pair_coeffs' (cF1, cG1, pair, cov, points) on the band, with the
    per-jump points taken at x (None without x), which is checked here.
    """
    _check_seed(seed)
    validate(data, mod)
    nu = data.nu
    if not isinstance(nu, AtomsMeasure):
        raise MeasureValidationError("bulk estimation needs a finite atomic measure")
    lam = nu.total_mass
    if not lam > 0.0:
        raise MeasureValidationError("bulk estimation needs |nu| > 0")
    if np.any(data.mu.weights):
        raise MeasureValidationError(
            "the compound-Poisson engine samples no Gaussian part: "
            "the sphere measure mu must have no weight")

    fhat, ghat, band, neg, zA, zB = _band(f, g, data.A, data.B)
    at = None if x is None else _point_phases(f, band, x)
    fband, gband = fhat[band], ghat[band]
    _, h = drift_reduce(data)
    cdA, cdB = zA @ h, zB @ h
    phi_atoms = np.asarray(_phi_values_at_atoms(mod, nu), dtype=complex)
    psiA, psiB = psi(data, np.concatenate([-zA, -zB])).reshape(2, -1)
    block = max(16, min(1024, CPP_BLOCK_VALUES // f.size))

    def blocks():
        for b0 in range(0, n_paths, block):
            times, marks, offsets = _sample_paths(nu, seed, b0, min(block, n_paths - b0))
            yield b0, offsets, cpp_pair_coeffs(
                times, marks, offsets, nu.atoms, phi_atoms,
                fband, gband, psiA, psiB, zA, zB, cdA, cdB, nu.weights, neg, at,
            )

    return band, blocks()


def run_cpp_paths(f: SampledField, g: SampledField, data: LevyData, mod: Modulator,
                  n_paths: int, seed: int, *, fend_powers=()):
    """Per-path statistics of the paired martingales from the blocked engine.

    pair and cov are box integrals of trig polynomials on the band, the
    kernel's per-path Parseval sums times dxi/(2 pi)^d; the L^p powers are
    sums over every SUB_STRIDE-th x-grid point (_subgrid_powers).  Returns
    per-path arrays:
      pair      integral of F1(x) G1(x) over the box
      cov       integral of sum_jumps dF(x) dG(x)  (covariation route)
      fend_pow  {p: integral |f(x + A Y1)|^p}
      njumps    jump counts
    """
    _check_n_paths(n_paths)
    band, blocks = _cpp_blocks(f, g, data, mod, n_paths, seed)
    out = {
        "pair": np.zeros(n_paths, dtype=complex),
        "cov": np.zeros(n_paths, dtype=complex),
        "fend_pow": {p: np.zeros(n_paths) for p in fend_powers},
        "njumps": np.zeros(n_paths, dtype=int),
    }
    for b0, offsets, (cF1, _, pair, cov, _) in blocks:
        rows = slice(b0, b0 + offsets.size - 1)
        out["njumps"][rows] = np.diff(offsets)
        out["pair"][rows] = pair * f.dxi_norm
        out["cov"][rows] = cov * f.dxi_norm
        for p, val in _subgrid_powers(f, band, cF1, fend_powers).items():
            out["fend_pow"][p][rows] = val
    return out


def check_subordination(f: SampledField, g: SampledField, data: LevyData,
                        mod: Modulator, n_paths: int, seed: int, x):
    """Differential subordination of G to F at the point x, path by path.

    Two rules, each with a relative slack of 1e-12 that absorbs
    floating-point roundoff only: per jump |dG(x)|^2 <= |dF(x)|^2, and
    after every jump [G,G] - [F,F] - |F_0(x)|^2 <= 0, the quadratic
    variations being the running sums of the squared jump moduli.  The
    kernel gives dF(x), dG(x) per path in time order, padded with zeros
    that change neither rule's maximum.  x needs f.d coordinates
    (ShapeMismatch) and must be finite (ValueError), and n_paths must be an
    integer >= 1 (ValueError): the check is pathwise.  Returns (violating_paths,
    jumps, worst), worst the largest violation (0.0 when there is none).
    """
    rel_slack = 1e-12
    _check_integer("n_paths", n_paths, 1)
    x = np.asarray(x, dtype=float).ravel()
    _, blocks = _cpp_blocks(f, g, data, mod, n_paths, seed, x)
    head = abs(semigroup_eval(f, data.A, data, 1.0, x)) ** 2
    violating = jumps = 0
    worst = 0.0
    for _, offsets, (*_, points) in blocks:
        df2, dg2 = np.abs(points) ** 2
        qf = head + np.cumsum(df2, axis=1)
        qg = np.cumsum(dg2, axis=1)
        excess = np.maximum(dg2 - df2 - rel_slack * (1.0 + df2),
                            qg - qf - rel_slack * (1.0 + qf))
        per_path = excess.max(axis=1, initial=0.0)
        violating += int(np.count_nonzero(per_path))
        jumps += int(offsets[-1])
        worst = max(worst, float(per_path.max()))
    return violating, jumps, worst


def floored_gaps(estimate: complex, stderr: complex, reference: complex):
    """((|d_re|, se_re), (|d_im|, se_im)): each component's distance of
    estimate from reference and its standard error.

    Components that are pure roundoff (e.g. the real part of a pairing
    that is imaginary pathwise) get an absolute floor of 1e-9 times the
    overall magnitude on the standard error, so zero-variance zero
    components compare sanely.
    """
    floor = 1e-9 * max(abs(estimate), abs(reference), 1e-300)
    return ((abs(estimate.real - reference.real), max(stderr.real, floor)),
            (abs(estimate.imag - reference.imag), max(stderr.imag, floor)))


def within_sigmas(estimate: complex, stderr: complex, reference: complex,
                  sigmas: float = 3.0) -> bool:
    """Componentwise |estimate - reference| <= sigmas * stderr, the standard
    errors floored as in floored_gaps."""
    return all(gap <= sigmas * se for gap, se in floored_gaps(estimate, stderr, reference))


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
                     mod: Modulator, n_paths: int, seed: int) -> PairingEstimate:
    """MC estimate of the pairing integral E F1(x) G1(x) dx (no conjugation),
    with the per-jump covariation route computed on the same paths."""
    stats = run_cpp_paths(f, g, data, mod, n_paths, seed)
    est, se = mean_and_se(stats["pair"])
    cest, cse = mean_and_se(stats["cov"])
    _, dse = mean_and_se(stats["pair"] - stats["cov"])
    return PairingEstimate(estimate=est, stderr=se, cov_estimate=cest,
                           cov_stderr=cse, diff_stderr=dse, n_paths=n_paths)


def _grid_pairing(spec: SymbolSpec, f: SampledField, g: SampledField) -> complex:
    """The spectral pairing of f and g against spec tabulated on their grid."""
    return pairing(evaluate_grid(spec, L=f.L, N=f.N), f, g).spectral


def spectral_pairing_value(f: SampledField, g: SampledField, data: LevyData,
                           mod: Modulator, u: float = 1.0) -> complex:
    """Deterministic reference: the grid pairing with the q-form symbol."""
    return _grid_pairing(SymbolSpec(variant="q_form", data=data, mod=mod, u=u), f, g)


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
    step_bias: complex = None      # mean of fine minus coarse per-path pairing (gate on)
    step_bias_se: complex = None   # its componentwise standard error


def brownian_pairing(f: SampledField, g: SampledField, A, B, Kmat,
                     n_paths: int, steps: int, seed: int, *,
                     var_scale: float = 0.5, richardson: bool = True) -> BrownianEstimate:
    """Euler estimate of the Gaussian-branch pairing on shared Brownian paths.

    Both stochastic integrals are taken along one path per draw; the
    endpoint route integrates F1 G1 over the box by the Parseval sum on the
    band, which the kernel returns per path (this function only scales it by
    dxi/(2 pi)^d), and the covariation route uses the time-quadrature of the
    integrand product (full-box x-integral via the frequency lattice).
    With var_scale = 1/2 the matching spectral symbol is the Gaussian form
    at the same scale; a var_scale that is not a finite number > 0 is a
    ValueError, raised before any path is drawn.  When A = B the covariation
    integrand's phases cancel (|e^{-i(xi, A W)}|^2 = 1), so every path gives
    the same time sum: the covariation route then carries no Monte-Carlo
    error, and cov_stderr is roundoff; it differs from the spectral value by
    the time-quadrature bias alone.  Each block's increments come from one
    Philox generator reset to each path's key (path_stream's draws) and are
    held (P, steps, n); the
    kernel contracts one phase table per step over the band and keeps no
    per-mode state.

    With richardson (steps even: the kernel names odd steps), the same
    kernel pass also takes the coarse level at steps/2 on the fine
    increments summed in pairs (Giles, Oper. Res. 56(3), 2008).  step_bias
    is the mean of the per-path D = pair(fine) - pair(coarse), which the
    kernel returns as diff, to first order minus the fine run's step bias,
    and step_bias_se its standard error.  StepTooCoarse is raised when,
    for a real component, |mean D| - 3 SE(D) exceeds the estimate's standard
    error (floored as in within_sigmas): a step bias above the run's own
    statistical error at a one-sided 3-sigma level, so a bias of exactly one
    standard error trips a component with probability at most about
    Phi(-3) = 0.135 %.  The estimate and both routes do not depend on the gate.
    """
    A, B, Kmat = _gaussian_maps(A, B, Kmat)
    _check_n_paths(n_paths)
    _check_seed(seed)
    _check_integer("steps", steps, 2)
    if not (isinstance(var_scale, numbers.Real) and 0.0 < var_scale < np.inf):
        raise ValueError(f"var_scale = {var_scale!r} is not a finite number > 0")

    n = A.shape[1]
    fhat, ghat, band, neg, zA, zB = _band(f, g, A, B)
    # band frequencies are 2 pi k / L per axis: the kernel takes the integer k and
    # the angle maps (2 pi / L) A, (2 pi / L) B
    turns = 2.0 * np.pi / np.asarray(f.L)
    rA = var_scale * (zA * zA).sum(axis=1)
    rB = var_scale * (zB * zB).sum(axis=1)

    KzB = zB @ Kmat.T                      # rows K B^T xi_k
    aKb = np.einsum("kj,kj->k", zA.astype(complex), KzB)
    sigma2 = 2.0 * var_scale
    U = sigma2 * aKb * fhat[band] * ghat[band][neg] * f.dxi_norm
    GB = -1j * ghat[band][:, None] * KzB

    block = max(8, min(256, BROWNIAN_BLOCK_VALUES // steps))
    pair_stats = np.zeros(n_paths, dtype=complex)
    cov_stats = np.zeros(n_paths, dtype=complex)
    diff_stats = np.zeros(n_paths, dtype=complex)
    sig = np.sqrt(sigma2 * (1.0 / steps))   # sqrt(sigma^2 h)

    for b0 in range(0, n_paths, block):
        P = min(block, n_paths - b0)
        dW = np.empty((P, steps, n))
        for i, rng in enumerate(_path_streams(seed, b0, P)):
            rng.standard_normal(out=dW[i])
        dW *= sig
        pair, Tcov, diff = brownian_accumulate(
            dW, rA, rB, U, GB, f.k[band], neg, turns[:, None] * A, turns[:, None] * B,
            fhat[band], coarse=richardson)
        pair_stats[b0:b0 + P] = pair * f.dxi_norm
        if richardson:
            diff_stats[b0:b0 + P] = diff * f.dxi_norm
        cov_stats[b0:b0 + P] = Tcov

    est, se = mean_and_se(pair_stats)
    cest, cse = mean_and_se(cov_stats)
    bias = bias_se = None
    if richardson:
        bias, bias_se = mean_and_se(diff_stats)
        floor = 1e-9 * max(abs(est), 1e-300)
        for part in (np.real, np.imag):
            if abs(part(bias)) - 3.0 * part(bias_se) > max(part(se), floor):
                raise StepTooCoarse(
                    f"step bias {bias:.3e} +- {bias_se:.3e} (mean fine minus coarse pairing "
                    f"at {steps} vs {steps // 2} steps) exceeds the estimate's standard error "
                    f"{se:.3e} at the one-sided 3-sigma level")
    return BrownianEstimate(
        estimate=est, stderr=se, cov_estimate=cest, cov_stderr=cse,
        n_paths=n_paths, steps=steps, step_bias=bias, step_bias_se=bias_se)


def gaussian_spectral_value(f: SampledField, g: SampledField, A, B, Kmat,
                            var_scale: float = 0.5) -> complex:
    """Grid pairing against the Gaussian symbol at the same variance scale."""
    return _grid_pairing(SymbolSpec(variant="gaussian", A=A, B=B, K=Kmat, var_scale=var_scale),
                         f, g)
