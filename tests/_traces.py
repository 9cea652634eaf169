"""Exact single-path traces of F and G: the test oracle for the blocked kernel.

`simulate_cpp` draws one path from the engine's sampler.  Each trace
evaluates the martingales one path at a time from the spectral
semigroup, and the compensator of G by Gauss-Legendre quadrature in time
with node doubling, instead of the closed forms the kernel uses.  The
tests compare the blocked kernel's endpoints and subordination figures
against these traces.  `point_and_power_stats` reads, off the blocked
kernel's coefficients, the point values and G-side L^q powers that only the
tests use, and forms the coefficients of g(. + B Y1) itself.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from levymult import mc
from levymult.errors import LevyMultError, MeasureValidationError
from levymult.levy import (
    AtomsMeasure,
    LevyData,
    Modulator,
    _phi_values_at_atoms,
    drift_reduce,
    psi,
)
from levymult.quadrature import panel_rule
from levymult.spectral import SampledField, _check_seed, transform_forward


class TraceMismatch(LevyMultError):
    pass


class QuadratureNodesInsufficient(UserWarning):
    """Doubling compensator quadrature nodes moved the result noticeably."""


@dataclass(frozen=True, eq=False)
class JumpPath:
    """One compound-Poisson trajectory on the unit horizon."""

    times: np.ndarray   # (J,) strictly increasing in (0, 1]
    marks: np.ndarray   # (J,) indices into the atom list
    jumps: np.ndarray   # (J, n) jump vectors
    intensity: float    # total mass of the jump measure


def simulate_cpp(nu: AtomsMeasure, seed: int, index: int = 0) -> JumpPath:
    """Path `index` of mc._sample_paths: jump count Poisson(|nu|), times as
    uniform order statistics, marks with law nu/|nu|.  Deterministic for a
    fixed (seed, index)."""
    _check_seed(seed)
    lam = nu.total_mass
    if not lam > 0.0:
        raise MeasureValidationError("compound-Poisson simulation needs |nu| > 0")
    times, marks, _ = mc._sample_paths(nu, seed, index, 1)
    return JumpPath(times=times, marks=marks, jumps=nu.atoms[marks], intensity=lam)


class _Semigroup:
    """Cached spectral semigroup for one (field, map, data) triple.

    Precomputes the exponent on the frequency lattice once, so repeated
    evaluations along a path cost only the phase sums.
    """

    def __init__(self, f: SampledField, A, data: LevyData):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        fhat = transform_forward(f).ravel()
        keep = np.abs(fhat) > 1e-16 * np.abs(fhat).max()
        self.Xi = f.xi[keep]
        self.psiA = np.atleast_1d(psi(data, -(self.Xi @ self.A)))
        self.base = fhat[keep] * f.dxi_norm

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


def point_and_power_stats(f: SampledField, g: SampledField, data: LevyData,
                          mod: Modulator, n_paths: int, seed: int, powers=()):
    """Per-path values at the central subgrid point x0 and G-side L^q powers
    from the blocked kernel's endpoint coefficients cF1, cG1, summed against
    the phases of x0 as the kernel sums each jump's dF, dG for
    mc.check_subordination.  Returns a dict: x0_point; f1_x0, g1_x0,
    gend_x0, the values of F1, G1 and g(x0 + B Y1); g1_pow, gend_pow,
    {q: integral |G1|^q} and {q: integral |g(x + B Y1)|^q} over every
    mc.SUB_STRIDE-th grid point.  The coefficients of g(. + B Y1) are
    ghat_k e^{-i(zB_k, h + sum of the path's jumps)} on the band, from the
    engine's own paths and drift h.
    """
    band, blocks = mc._cpp_blocks(f, g, data, mod, n_paths, seed)
    _, ghat, _, _, _, zB = mc._band(f, g, data.A, data.B)
    _, h = drift_reduce(data)
    _, marks, offsets = mc._sample_paths(data.nu, seed, 0, n_paths)
    y1 = np.tile(h, (n_paths, 1))
    np.add.at(y1, np.repeat(np.arange(n_paths), np.diff(offsets)), data.nu.atoms[marks])
    stride = mc.SUB_STRIDE
    x0 = np.array([ax[::stride][(n // stride) // 2] for ax, n in zip(f.space_axes, f.N)])
    at_x0 = mc._point_phases(f, band, x0)
    rows = {key: [] for key in ("f1_x0", "g1_x0", "gend_x0")}
    pows = {key: {q: [] for q in powers} for key in ("g1_pow", "gend_pow")}
    for b0, offs, (cF1, cG1, *_) in blocks:
        cGend = ghat[band] * np.exp(-1j * (y1[b0:b0 + offs.size - 1] @ zB.T))
        for key, coeffs in (("f1_x0", cF1), ("g1_x0", cG1), ("gend_x0", cGend)):
            rows[key].append(coeffs @ at_x0)
        for key, coeffs in (("g1_pow", cG1), ("gend_pow", cGend)):
            for q, val in mc._subgrid_powers(f, band, coeffs, powers).items():
                pows[key][q].append(val)
    out = {key: np.concatenate(vals) for key, vals in rows.items()}
    out.update({key: {q: np.concatenate(v) for q, v in per_q.items()}
                for key, per_q in pows.items()})
    out["x0_point"] = x0
    return out
