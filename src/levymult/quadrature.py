"""Gauss-Legendre panels on a ray, from which `approximate` builds the
quadrature atoms of a radial density.

The jump integrands change character at three scales: a power-law
singularity at r = 0, the compensation cutoff at r = 1, and oscillation
e^{icr} at large r.  Panels are therefore laid out geometrically near the
origin, forced to break at r = 1, and capped in width so that no panel
holds more oscillation periods than the node count can resolve.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_rule(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights over consecutive panels given by edges."""
    x, w = _leggauss(order)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def radial_edges(r_lo: float, r_hi: float, osc_rate: float, order: int,
                 periods_per_panel: float = 4.0) -> np.ndarray:
    """Panel edges on [r_lo, r_hi] for integrands ~ rho(r)*e^{i*osc_rate*r}.

    Geometric doubling from r_lo, a forced edge at r = 1, and a width cap
    of `periods_per_panel` oscillation periods so `order` nodes keep
    several points per period.
    """
    if not (0.0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    max_width = np.inf
    if osc_rate > 0.0:
        max_width = periods_per_panel * 2.0 * np.pi / osc_rate
    edges = [r_lo]
    r = r_lo
    while r < r_hi and r < max_width:  # r -> 2r growth until the width cap bites
        nxt = min(r + r, r_hi)
        if r < 1.0 < nxt:
            nxt = 1.0
        edges.append(nxt)
        r = nxt
    runs = [edges]
    # width-capped runs r + w, (r + w) + w, ... up to the forced edge at 1 and
    # then to r_hi; cumsum adds in that order, so the edges are those of the
    # one-edge-at-a-time loop bit for bit
    for stop in (1.0, r_hi):
        if not r < stop <= r_hi:
            continue
        terms = np.full(int((stop - r) / max_width) + 3, max_width)
        terms[0] = r
        run = np.cumsum(terms)[1:]
        runs.append(run[run < stop])
        runs.append([stop])
        r = stop
    return np.concatenate(runs)
