"""The one-p-at-a-time L^p probe: the test oracle for `norm_probe`.

Each trial is built, transformed and scored on its own, through
`SampledField` objects and `lp_norm`, for a single p; the best trial is then
refined by the same coordinate ascent.  `norm_probe` scores batches of
trials for every p in one pass; the tests check that it returns the same
reports as this loop.
"""

import numpy as np

from levymult.spectral import (
    ProbeReport,
    _bump_coeffs,
    _trig_poly_coeffs,
    lp_norm,
    p_star_minus_one,
    transform_inverse,
)


def _ratio_from_coeffs(coeffs, m, p) -> float:
    f = transform_inverse(coeffs, m)
    nf = lp_norm(f, p)
    if nf == 0.0:
        return 0.0
    mf = transform_inverse(np.asarray(m.values) * coeffs.reshape(m.values.shape), m)
    return lp_norm(mf, p) / nf


def probe_one_p(m, p: float, trials: int = 500, seed: int = 0,
                ascent_steps: int = 200) -> ProbeReport:
    bound = p_star_minus_one(p)
    best = -1.0
    best_coeffs = None
    best_desc = ""
    for t in range(trials):
        rng = np.random.default_rng(np.random.Philox(key=(seed << 16) + t))
        if t % 2 == 0:
            coeffs = _trig_poly_coeffs(rng, m)
            desc = f"trig-poly trial={t}"
        else:
            coeffs = _bump_coeffs(rng, m)
            desc = f"gaussian-bump trial={t}"
        ratio = _ratio_from_coeffs(coeffs, m, p)
        if ratio > best:
            best, best_coeffs, best_desc = ratio, coeffs, desc

    rng = np.random.default_rng(np.random.Philox(key=(seed << 16) + trials + 1))
    coeffs = best_coeffs.copy()
    scale = np.abs(coeffs).max()
    flat = coeffs.ravel()
    live = np.flatnonzero(np.abs(flat) > 1e-12 * scale)
    for _ in range(ascent_steps):
        idx = live[rng.integers(live.size)] if live.size else rng.integers(flat.size)
        old = flat[idx]
        flat[idx] = old + 0.25 * scale * (rng.standard_normal() + 1j * rng.standard_normal())
        ratio = _ratio_from_coeffs(coeffs, m, p)
        if ratio > best:
            best = ratio
            best_desc += "+ascent"
        else:
            flat[idx] = old

    return ProbeReport(
        p=p, bound=bound, best_ratio=best, best_descriptor=best_desc,
        trials=trials, seed=seed, passed=best <= bound * (1.0 + 5e-3),
    )
