"""Multiplier symbols: every closed or semi-closed form, plus grid tabulation.

The canonical evaluator is the q-form

    m(xi) = e^{psi(b)+psi(a)} [pt(b+a) - pt(b) - pt(a)] q(ps(b+a) - ps(b) - ps(a)),

with b = B^T xi, a = -A^T xi, q(z) = (e^z - 1)/z, q(0) = 1.  Because q is
total, the zero-denominator conventions of the ratio form hold
automatically.  The ratio ("integral") form is kept as an independent
cross-check: its bilinear integrals are evaluated directly, not through
exponent differences.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
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
from .grids import Grid
from .levy import IDENTITY_MOD, LevyData, Modulator, cross_form, exponents, psi

BOUND_TOL = 1e-9
_TAYLOR_CUT = 1e-3


def q_func(z):
    """(e^z - 1)/z extended by q(0) = 1; series below |z| = 1e-3.

    Accepts scalars or arrays.  The five-term series keeps relative error
    under 1e-12 where the direct ratio would cancel catastrophically.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = np.abs(z) < _TAYLOR_CUT
    zs = z[small]
    out[small] = 1.0 + zs * (1.0 / 2.0 + zs * (1.0 / 6.0 + zs * (1.0 / 24.0 + zs / 120.0)))
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return complex(out[0]) if scalar else out


def _xi_batch(xi, d):
    X = np.asarray(xi, dtype=float)
    scalar = X.ndim <= 1
    X = np.atleast_2d(X)
    if X.shape[1] != d:
        raise ShapeMismatch(f"xi must have dimension {d}, got {X.shape[1]}")
    return X, scalar


def _maybe_scalar(vals, scalar):
    return complex(vals[0]) if scalar else vals


def _exp_q_pair(e_cross, e_prod):
    """e^{e_prod} q(e_cross - e_prod), computed as (e^{e_cross} - e^{e_prod})
    over (e_cross - e_prod) away from the removable point.

    Both exponents have nonpositive real part, so this form never
    overflows even though e_cross - e_prod may have a large positive
    real part.
    """
    diff = e_cross - e_prod
    small = np.abs(diff) < _TAYLOR_CUT
    out = np.empty_like(diff)
    out[small] = np.exp(e_prod[small]) * q_func(diff[small])
    big = ~small
    out[big] = (np.exp(e_cross[big]) - np.exp(e_prod[big])) / diff[big]
    return out


def symbol_q(data: LevyData, mod: Modulator, xi, u: float = 1.0):
    """The q-form symbol; u scales both exponents (u -> inf gives the limit form)."""
    X, scalar = _xi_batch(xi, data.d)
    zb = X @ data.B
    za = -(X @ data.A)
    zc = zb + za
    # with B = -A the a and b rows coincide; evaluate them once
    rows = [zc, zb] if np.array_equal(za, zb) else [zc, zb, za]
    ps, pt = (e.reshape(len(rows), -1) for e in exponents(data, mod, np.concatenate(rows)))
    ps_c, ps_b, ps_a = ps[0], ps[1], ps[-1]
    pt_c, pt_b, pt_a = pt[0], pt[1], pt[-1]
    bracket = pt_c - pt_b - pt_a
    vals = (u * bracket) * _exp_q_pair(u * ps_c, u * (ps_b + ps_a))
    return _maybe_scalar(vals, scalar)


def symbol_integral(data: LevyData, mod: Modulator, xi, u: float = 1.0):
    """Ratio-form symbol with direct bilinear integrals; oracle for symbol_q.

    Each row switches to the product convention when |denominator| falls
    below 1e-12 (1 + |numerator|).
    """
    X, scalar = _xi_batch(xi, data.d)
    zb = X @ data.B
    za = -(X @ data.A)
    num = cross_form(data, mod, zb, za)
    den = cross_form(data, IDENTITY_MOD, zb, za)
    ps_b, ps_a, ps_c = psi(data, np.concatenate([zb, za, zb + za])).reshape(3, -1)
    expo = np.exp(u * (ps_b + ps_a))
    vals = expo * u * num
    ratio = ~(np.abs(den) < 1e-12 * (1.0 + np.abs(num)))  # a NaN den keeps the ratio
    vals[ratio] = (np.exp(u * ps_c[ratio]) - expo[ratio]) * num[ratio] / den[ratio]
    return _maybe_scalar(vals, scalar)


def symbol_limit(data: LevyData, mod: Modulator, xi, on_degenerate: str = "raise"):
    """Large-u limit symbol (requires A = B):
    [pt(A^T xi) + pt(-A^T xi)] / [ps(A^T xi) + ps(-A^T xi)].

    The denominator is 2 Re ps(A^T xi), so points with Re ps >= 0 are
    degenerate; on_degenerate picks raising versus storing 0 (grid use).
    """
    if not np.array_equal(data.A, data.B):
        raise RequiresEqualMatrices("the limit symbol needs A = B")
    X, scalar = _xi_batch(xi, data.d)
    za = X @ data.A
    ps, pt = exponents(data, mod, np.concatenate([za, -za]))
    k = X.shape[0]
    den = ps[:k] + ps[k:]
    num = pt[:k] + pt[k:]
    bad = den.real >= -1e-300
    if np.any(bad):
        if on_degenerate == "raise":
            raise DegenerateDenominator(
                "Re psi(A^T xi) >= 0 at a requested frequency; the limit symbol "
                "is undefined there"
            )
        vals = np.zeros(k, dtype=complex)
        good = ~bad
        vals[good] = num[good] / den[good]
    else:
        vals = num / den
    return _maybe_scalar(vals, scalar)


def _gaussian_maps(A, B, K):
    """The Gaussian branch's maps as arrays: A and B of one shape d x n, and K
    an n x n contraction.  ShapeMismatch or KNormExceedsOne otherwise."""
    A, B = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B))
    K = np.atleast_2d(np.asarray(K, dtype=complex))
    if A.ndim != 2 or B.shape != A.shape or K.shape != (A.shape[1],) * 2:
        raise ShapeMismatch(f"A {A.shape} and B {B.shape} must be d x n and K {K.shape} n x n")
    smax = np.linalg.svd(K, compute_uv=False)[0]
    if smax > 1.0 + 1e-12:
        raise KNormExceedsOne(f"largest singular value of K is {smax:.12g} > 1")
    return A, B, K


def symbol_gaussian(A, B, K, xi, var_scale: float = 1.0):
    """Gaussian-branch symbol, exactly as the closed form states it:

        [e^{-s|a-b|^2} - e^{-s(|a|^2+|b|^2)}] (a, K b) / (a, b),
        a = A^T xi, b = B^T xi,

    evaluated as 2 s (a, K b) e^{-s(|a|^2+|b|^2)} q(2 s (a, b)), so that
    at (a, b) = 0 it takes the limit 2 s e^{-s(|a|^2+|b|^2)} (a, K b) and
    stays well conditioned nearby.  var_scale = 1 gives the unit-scale
    exponents above; 1/2 is the scale produced by the Brownian
    time-integral, which brownian_pairing verifies against.
    """
    A, B, K = _gaussian_maps(A, B, K)
    X, scalar = _xi_batch(xi, A.shape[0])
    a = X @ A
    b = X @ B
    s = var_scale
    aKb = np.einsum("kj,kj->k", a.astype(complex), b @ K.T)
    e_cross = -s * np.einsum("kj,kj->k", a - b, a - b).astype(complex)
    e_prod = -s * (np.einsum("kj,kj->k", a, a) + np.einsum("kj,kj->k", b, b)).astype(complex)
    vals = 2.0 * s * aKb * _exp_q_pair(e_cross, e_prod)
    return _maybe_scalar(vals, scalar)


def symbol_gaussian_limit(A, K, xi, on_degenerate: str = "raise"):
    """Homogeneous degree-0 Gaussian limit (a, K a)/(a, a), a = A^T xi."""
    A, _, K = _gaussian_maps(A, A, K)
    X, scalar = _xi_batch(xi, A.shape[0])
    a = X @ A
    aKa = np.einsum("kj,kj->k", a.astype(complex), a @ K.T)
    aa = np.einsum("kj,kj->k", a, a)
    bad = aa == 0.0
    if np.any(bad):
        if on_degenerate == "raise":
            raise ZeroFrequencyVector("A^T xi vanishes at a requested frequency")
        vals = np.zeros(X.shape[0], dtype=complex)
        vals[~bad] = aKa[~bad] / aa[~bad]
    else:
        vals = aKa / aa
    return _maybe_scalar(vals, scalar)


def symbol_stable(alpha: float, xi):
    """Closed-form non-symmetric stable symbol (d = 1, phi = sgn, B = I = -A):

        m(xi) = -i tan(pi alpha/2) sgn(xi) (e^{-|2 xi|^alpha} - e^{-2|xi|^alpha}),

    evaluated as -i sgn(xi) [e^{-|2 xi|^a} - e^{-2p}] / E * t with p = |xi|^a,
    E = 2^(a-1) - 1 and t = -E / tan(pi (a-1)/2): the bracket is written with
    expm1 of the exponent gap 2 p E, so the tan pole and the cancelling
    difference both stay well conditioned as alpha -> 1.  alpha = 1 takes the
    limit -(4 ln2/pi) i xi e^{-2|xi|}.  The overall sign is fixed by the
    construction itself (gamma-function arithmetic, quadrature, and the
    Monte-Carlo pairing all agree); published displays of this formula
    differ by a factor -sgn(xi).
    """
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 2), got {alpha}")
    x = np.asarray(xi, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).ravel()
    if alpha == 1.0:
        vals = -(4.0 * math.log(2.0) / math.pi) * 1j * x * np.exp(-2.0 * np.abs(x))
        return complex(vals[0]) if scalar else vals
    p = np.abs(x) ** alpha
    E = math.expm1((alpha - 1.0) * math.log(2.0))
    t = -E / math.tan(math.pi * (alpha - 1.0) / 2.0)
    # e^{-2^a p} - e^{-2p} = e^{-2p} expm1(-2pE) = -e^{-2^a p} expm1(2pE); the
    # form whose expm1 argument is nonpositive never overflows
    if E > 0.0:
        gap = np.exp(-2.0 * p) * np.expm1(-2.0 * p * E)
    else:
        gap = -np.exp(-np.abs(2.0 * x) ** alpha) * np.expm1(2.0 * p * E)
    vals = -1j * np.sign(x) * (gap / E) * t
    return complex(vals[0]) if scalar else vals


def _axis(name: str, value, d: int) -> int:
    """A preset's coordinate axis as an int; SymbolSpecError unless a whole number in [0, d)."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer() and 0 <= value < d):
        raise SymbolSpecError(f"preset axis {name} = {value!r} is not a whole number in [0, {d})")
    return int(value)


def preset_log_symbol(j: int, d: int, xi):
    """ln(1 + xi_j^-2) / sum_k ln(1 + xi_k^-2); needs every coordinate nonzero."""
    j = _axis("j", j, d)
    X, scalar = _xi_batch(xi, d)
    if np.any(X == 0.0):
        raise ZeroCoordinate("the log-ratio symbol needs all coordinates nonzero")
    terms = np.log1p(X ** (-2.0))
    vals = (terms[:, j] / terms.sum(axis=1)).astype(complex)
    return _maybe_scalar(vals, scalar)


def riesz_matrix(j: int, k: int, n: int) -> np.ndarray:
    """K = -(e_j e_k^T + e_k e_j^T); with A = I this gives -2 xi_j xi_k / |xi|^2."""
    j, k = _axis("j", j, n), _axis("k", k, n)
    K = np.zeros((n, n))
    K[j, k] -= 1.0
    K[k, j] -= 1.0
    return K


# ---------------------------------------------------------------------------
# symbol specifications and grid tabulation
# ---------------------------------------------------------------------------

_DEFAULT_GRIDS = {1: (40.0, 1024), 2: (20.0, 256), 3: (10.0, 64)}


@dataclass(frozen=True, eq=False)
class SymbolSpec:
    """A closed evaluator xi -> m(xi), tagged with its formula variant.

    variants: q_form | integral_form | limit_form | gaussian |
              gaussian_limit | stable | preset

    SymbolSpecError names an unknown variant or preset, a preset axis (j; k for
    riesz) that is not a whole number in [0, d), and a stable symbol given d != 1.
    """

    variant: str
    data: LevyData = None
    mod: Modulator = field(default_factory=lambda: IDENTITY_MOD)
    u: float = 1.0
    A: np.ndarray = None
    B: np.ndarray = None
    K: np.ndarray = None
    var_scale: float = 1.0
    alpha: float = 0.5
    preset: str = "riesz"
    j: int = 0
    k: int = 1
    d: int = None

    def __post_init__(self):
        v, d = self.variant, self.dim   # dim names an unknown variant
        for name in ("u", "var_scale", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if v == "stable" and self.d not in (None, 1):
            raise SymbolSpecError(f"the stable symbol is one-dimensional, got d = {self.d}")
        if v == "preset":
            if self.preset not in ("log", "riesz"):
                raise SymbolSpecError(f"unknown preset {self.preset!r}")
            for name in ("j", "k") if self.preset == "riesz" else ("j",):
                object.__setattr__(self, name, _axis(name, getattr(self, name), d))

    @property
    def dim(self) -> int:
        if self.variant in ("q_form", "integral_form", "limit_form"):
            return self.data.d
        if self.variant in ("gaussian", "gaussian_limit"):
            return np.atleast_2d(np.asarray(self.A)).shape[0]
        if self.variant == "stable":
            return 1
        if self.variant == "preset":
            return self.d if self.d is not None else 2
        raise SymbolSpecError(f"unknown symbol variant {self.variant!r}")

    def __call__(self, xi, on_degenerate: str = "raise"):
        v = self.variant
        if v == "q_form":
            return symbol_q(self.data, self.mod, xi, u=self.u)
        if v == "integral_form":
            return symbol_integral(self.data, self.mod, xi, u=self.u)
        if v == "limit_form":
            return symbol_limit(self.data, self.mod, xi, on_degenerate=on_degenerate)
        if v == "gaussian":
            return symbol_gaussian(self.A, self.B, self.K, xi, var_scale=self.var_scale)
        if v == "gaussian_limit":
            return symbol_gaussian_limit(self.A, self.K, xi, on_degenerate=on_degenerate)
        if v == "stable":
            xi_arr = np.atleast_2d(np.asarray(xi, dtype=float))
            vals = symbol_stable(self.alpha, xi_arr[:, 0])
            return vals if np.asarray(xi).ndim > 1 else complex(np.atleast_1d(vals)[0])
        return self._preset(xi, on_degenerate)

    def _preset(self, xi, on_degenerate):
        d = self.dim
        X, scalar = _xi_batch(xi, d)
        if self.preset == "log":
            ok = np.all(X != 0.0, axis=1)
            if not np.all(ok) and on_degenerate == "raise":
                raise ZeroCoordinate("log-ratio preset undefined on coordinate axes")
            vals = np.zeros(X.shape[0], dtype=complex)
            if np.any(ok):
                vals[ok] = preset_log_symbol(self.j, d, X[ok])
            return _maybe_scalar(vals, scalar)
        K = riesz_matrix(self.j, self.k, d)
        return symbol_gaussian_limit(np.eye(d), K, X if not scalar else np.asarray(xi),
                                     on_degenerate=on_degenerate)


@dataclass(frozen=True, eq=False)
class SymbolGrid(Grid):
    """Symbol samples m(xi_k) on the frequency lattice, FFT index order."""

    values: np.ndarray  # shape N, complex
    max_abs: float
    argmax_xi: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()


def symbol_grid_from_values(values: np.ndarray, grid: Grid,
                            check_bound: bool = True) -> SymbolGrid:
    values = np.asarray(values, dtype=complex).reshape(grid.N)
    absvals = np.abs(values)
    top = np.unravel_index(int(np.argmax(absvals)), grid.N)  # lands on a NaN if any
    xi = np.array([ax[i] for ax, i in zip(grid.xi_axes, top)])
    max_abs = float(absvals.max())
    if check_bound and not np.isfinite(max_abs):
        raise SymbolBoundViolation(f"symbol is not finite at xi = {xi}")
    if check_bound and max_abs > 1.0 + BOUND_TOL:
        raise SymbolBoundViolation(
            f"max |m| = {max_abs:.12g} exceeds 1 + {BOUND_TOL} at xi = {xi}"
        )
    return SymbolGrid(d=grid.d, L=grid.L, N=grid.N, values=values, max_abs=max_abs,
                      argmax_xi=xi)


def evaluate_grid(spec: SymbolSpec, L=None, N=None) -> SymbolGrid:
    """Tabulate a symbol on the frequency lattice and enforce |m| <= 1 + 1e-9.

    Points where a degree-0 or axis-singular symbol is undefined store 0.
    """
    d = spec.dim
    if (L is None or N is None) and d not in _DEFAULT_GRIDS:
        raise GridMismatch(f"no default grid for d = {d}: give L and N")
    if L is None or N is None:
        Ld, Nd = _DEFAULT_GRIDS[d]
        L = Ld if L is None else L
        N = Nd if N is None else N
    grid = Grid(d, L, N)
    vals = np.asarray(spec(grid.xi, on_degenerate="zero"), dtype=complex)
    return symbol_grid_from_values(vals, grid)
