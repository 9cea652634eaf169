"""Hot inner loops of the Monte-Carlo engines, vectorised across paths.

All martingale algebra happens in frequency coefficients: for one
compound-Poisson path with jump times v_i, marks z_i, and state
y(v) = h v + sum_{v_i <= v} z_i, the endpoint and per-jump coefficients
on the frequency band are

    F1:   fhat_k e^{-i(zA_k, y(1))}
    dF_i: fhat_k e^{(1-v_i) psiA_k} e^{-i(zA_k, y(v_i-))} (e^{-i(zA_k,z_i)} - 1)
    dG_i: ghat_k e^{(1-v_i) psiB_k} e^{-i(zB_k, y(v_i-))} (e^{-i(zB_k,z_i)} - 1) phi_i
    G1 = sum_i dG_i - compensator,

where zA_k = A^T xi_k, psiA_k = psi(-A^T xi_k).  The compensator's time
integral over an inter-jump interval is an exact exponential and is
integrated in closed form via q(z) = (e^z - 1)/z.

Band frequencies lie on the lattice xi_k = 2 pi k / L (integer k per
axis), so for any map A and any point w

    e^{-i(xi_k, A w)} = prod_ax  e^{-i theta_ax k_ax},   theta_ax = (2 pi / L_ax) (A w)_ax.

lattice_phases evaluates the whole band from one complex exponential per
path and axis; the Brownian kernel takes its path phases that way.
"""

import numpy as np

from .symbols import q_func


def cpp_pair_coeffs(times, marks, offsets, zatoms, phi_atoms,
                    fhat, ghat, psiA, psiB, zA, zB, cdA, cdB, S):
    """Frequency coefficients of F1, G1, g(. + B Y1), and per-jump dF, dG
    for a block of compound-Poisson paths.  Returns (cF1, cG1, cGend, covF, covG).
    """
    P = offsets.size - 1
    counts = np.diff(offsets)
    covF = np.zeros((times.size, fhat.size), dtype=complex)
    covG = np.zeros((times.size, fhat.size), dtype=complex)
    cG1 = np.zeros((P, fhat.size), dtype=complex)
    phA = np.ones((P, fhat.size), dtype=complex)
    phB = np.ones((P, fhat.size), dtype=complex)
    left = np.tile(np.exp(psiB), (P, 1))  # e^{(1-a)psiB} e^{-i a cdB} phB at the interval's left end
    prev = np.zeros(P)
    W = -psiB - 1j * cdB
    has_drift = bool(np.any(cdA != 0.0) or np.any(cdB != 0.0))
    jmax = int(counts.max()) if P else 0
    for j in range(jmax):
        act = np.flatnonzero(counts > j)
        idx = offsets[act] + j
        v = times[idx]
        z = zatoms[marks[idx]]
        dt = (v - prev[act])[:, None]
        cG1[act] -= ghat * left[act] * dt * q_func(dt * W) * S
        EAv = np.exp((1.0 - v)[:, None] * psiA)
        EBv = np.exp((1.0 - v)[:, None] * psiB)
        if has_drift:
            dphA = np.exp(-1j * v[:, None] * cdA)
            dphB = np.exp(-1j * v[:, None] * cdB)
        else:
            dphA = dphB = 1.0
        pjA = np.exp(-1j * (z @ zA.T))
        pjB = np.exp(-1j * (z @ zB.T))
        dF = fhat * EAv * phA[act] * dphA * (pjA - 1.0)
        dG = ghat * EBv * phB[act] * dphB * (pjB - 1.0) * phi_atoms[marks[idx]][:, None]
        covF[idx] = dF
        covG[idx] = dG
        cG1[act] += dG
        phA[act] = phA[act] * pjA
        phB[act] = phB[act] * pjB
        left[act] = EBv * dphB * phB[act]
        prev[act] = v
    dt = (1.0 - prev)[:, None]
    cG1 -= ghat * left * dt * q_func(dt * W) * S
    np.multiply(fhat, phA, out=phA)
    np.multiply(ghat, phB, out=phB)
    if has_drift:
        phA *= np.exp(-1j * cdA)
        phB *= np.exp(-1j * cdB)
    return phA, cG1, phB, covF, covG


# ---------------------------------------------------------------------------
# Brownian branch
# ---------------------------------------------------------------------------


def lattice_phases(theta, kint):
    """e^{-i sum_ax kint[k, ax] theta[p, ax]} as a (P, K) array.

    theta is (P, d), kint the (K, d) integer lattice coordinates.  Per axis,
    the powers w^0 .. w^m of w = e^{-i theta} come from repeated doubling
    (w^{n+j} = w^n w^j) and the negative powers by conjugation, laid out in
    FFT order (column k mod (2m+1) holds w^k).  A band in that order is the
    table itself; any other band is gathered from it.  The axes multiply.
    """
    P = theta.shape[0]
    out = None
    for ax in range(kint.shape[1]):
        k = kint[:, ax]
        m = int(np.abs(k).max())
        size = 2 * m + 1
        table = np.empty((P, size), dtype=complex)
        table[:, 0] = 1.0
        if m:
            table[:, 1] = np.exp(-1j * theta[:, ax])
        n = 2
        while n <= m:
            hi = min(2 * n, m + 1)
            np.multiply(table[:, :hi - n], (table[:, n - 1] * table[:, 1])[:, None],
                        out=table[:, n:hi])
            n *= 2
        np.conjugate(table[:, m:0:-1], out=table[:, m + 1:])
        col = k % size
        phase = table if np.array_equal(col, np.arange(size)) else np.take(table, col, axis=1)
        out = phase if out is None else out * phase
    return out


def brownian_accumulate(dW, EA, EB, U, GB, kint, TA, TB, fhat, dxi_norm,
                        want_qv: bool = False):
    """Euler accumulation along a block of Brownian paths.

    dW is (P, steps, n); kint holds the band's integer lattice coordinates
    and TA, TB the (d, n) angle maps (2 pi / L_ax) A[ax, :], so that the
    phase of mode k at the path point W is e^{-i(kint_k, TA W)}.
    Returns (cF1, cG1, Tcov, qv_disc, qv_quad): endpoint coefficients of
    f(x + A W_1), the Ito-sum coefficients of G1, the in-path covariation
    x-integral, and (optionally) the discrete vs time-quadrature
    quadratic variations of G at x = 0.
    """
    P, steps, n = dW.shape
    h = 1.0 / steps
    W = np.cumsum(dW, axis=1)               # path point at the end of each step
    theta = np.concatenate([W @ TA.T, W @ TB.T])   # (2P, steps, d): A rows, then B rows
    cG1 = np.zeros((P, fhat.size), dtype=complex)
    Tcov = np.zeros(P, dtype=complex)
    qv_disc = np.zeros(P)
    qv_quad = np.zeros(P)
    phA = phB = np.ones((P, fhat.size), dtype=complex)
    for s in range(steps):
        GBs = EB[s][:, None] * GB            # (K, n)
        Tcov += h * ((phA * np.conj(phB)) @ (U * EA[s] * EB[s]))
        cG1 += (dW[:, s, :] @ GBs.T) * phB
        if want_qv:
            ug = (phB @ GBs) * dxi_norm      # (P, n)
            qv_quad += h * (np.abs(ug) ** 2).sum(axis=1)
            dg = np.einsum("pj,pj->p", ug, dW[:, s, :])
            qv_disc += np.abs(dg) ** 2
        ph = lattice_phases(theta[:, s], kint)
        phA, phB = ph[:P], ph[P:]
    return fhat * phA, cG1, Tcov, qv_disc, qv_quad
