"""Hot inner loops of the Monte-Carlo engines, vectorised across paths.

All martingale algebra happens in frequency coefficients: for one
compound-Poisson path with jump times v_i, marks z_i, and state
y(v) = h v + sum_{v_i <= v} z_i, the endpoint and per-jump coefficients
on the frequency band are

    F1:   fhat_k e^{-i(zA_k, y(1))}
    dF_i: fhat_k EA_k(v_i) e^{-i(zA_k, y(v_i-) - h v_i)} (e^{-i(zA_k,z_i)} - 1)
    dG_i: ghat_k EB_k(v_i) e^{-i(zB_k, y(v_i-) - h v_i)} (e^{-i(zB_k,z_i)} - 1) phi_i
    G1 = sum_i dG_i - compensator,

where zA_k = A^T xi_k, psiA_k = psi(-A^T xi_k), cdA_k = (zA_k, h) and
EA_k(t) = e^{(1-t) psiA_k - i t cdA_k} = e^{psiA_k + t WA_k}, WA_k = -psiA_k - i cdA_k
(EB, WB alike).  The jump factors e^{-i(zA_k, z_m)} take one value per atom
m, so they, and fhat (e^{-i(zA_k,z_m)} - 1), ghat (e^{-i(zB_k,z_m)} - 1) phi_m,
are (atoms, modes) tables whose rows are gathered by mark.

Between jumps the phase e^{-i(zB_k, y - h t)} is fixed, and the compensator
integrand is ghat_k S_k times it times EB_k(t).  As dEB/dt = WB EB,

    int_a^v EB_k(t) dt = (EB_k(v) - EB_k(a)) / WB_k,

and EB_k(v) times the phase is the row dG_i is built on, so the compensator
costs no exponential.  On the fixed modes with |WB_k| < W_CUT (WB = 0 at
xi = 0, and wherever psiB = -i cdB, such as xi = 2 pi k for a unit atom) the
integral stays (v - a) EB_k(a) q((v - a) WB_k), with q(z) = (e^z - 1)/z.
Since Re psiB <= 0 and the phases have modulus one, |EB| <= 1, so the
telescoped difference carries an absolute error of at most about
4 eps |ghat_k S_k| / W_CUT per interval (eps the double epsilon).

Band frequencies lie on the lattice xi_k = 2 pi k / L (integer k per
axis), so for any map A and any point w

    e^{-i(xi_k, A w)} = prod_ax  e^{-i theta_ax k_ax},   theta_ax = (2 pi / L_ax) (A w)_ax.

lattice_phases evaluates the whole band from one complex exponential per
path and axis; the Brownian kernel takes its path phases that way.  It holds
them, and its accumulators, modes by paths, (K, P): the doubling then
multiplies contiguous row blocks, and each mode's factor scales one row.
With A = B the covariation integrand's phase product is |phase|^2 = 1, so the
covariation x-integral is one sum over steps and modes, the same for every
path, and its Monte-Carlo standard error is roundoff.
"""

import numpy as np

from .symbols import q_func

W_CUT = 0.1   # modes with |WB| below this integrate the compensator by q_func


def cpp_pair_coeffs(times, marks, offsets, zatoms, phi_atoms,
                    fhat, ghat, psiA, psiB, zA, zB, cdA, cdB, S):
    """Frequency coefficients of F1, G1 and per-jump dF, dG for a block of
    compound-Poisson paths.  Returns (cF1, cG1, covF, covG).

    The per-path state is kept with the paths ordered by jump count, most
    first, so the paths still jumping at step j are a leading slice.
    """
    P = offsets.size - 1
    counts = np.diff(offsets)
    order = np.argsort(-counts, kind="stable")
    first = offsets[:-1][order]
    covF = np.empty((times.size, fhat.size), dtype=complex)
    covG = np.empty((times.size, fhat.size), dtype=complex)
    pjA = np.exp(-1j * (zatoms @ zA.T))            # (atoms, modes) jump factors
    pjB = np.exp(-1j * (zatoms @ zB.T))
    jumpA = fhat * (pjA - 1.0)
    jumpB = ghat * (pjB - 1.0) * phi_atoms[:, None]
    WA = -psiA - 1j * cdA
    WB = -psiB - 1j * cdB
    same = np.array_equal(psiA, psiB) and np.array_equal(cdA, cdB)   # EA = EB
    gS = ghat * S
    big = np.abs(WB) >= W_CUT
    small = np.flatnonzero(~big)
    gS_W = np.divide(gS, WB, out=np.zeros_like(gS), where=big)

    def compensator(left, right, dt):
        """ghat S times the integral of EB times the phase over an interval,
        from the interval's ends left = EB(a) phase, right = EB(v) phase."""
        out = gS_W * (right - left)
        if small.size:
            out[:, small] = gS[small] * left[:, small] * dt * q_func(dt * WB[small])
        return out

    cG1 = np.zeros((P, fhat.size), dtype=complex)
    phA = np.ones((P, fhat.size), dtype=complex)
    phB = np.ones((P, fhat.size), dtype=complex)
    left = np.tile(np.exp(psiB), (P, 1))  # EB(a) phB at the interval's left end a
    prev = np.zeros(P)
    for j in range(counts.max(initial=0)):
        n = np.count_nonzero(counts > j)
        idx = first[:n] + j
        v = times[idx][:, None]
        m = marks[idx]
        pa, pb = phA[:n], phB[:n]
        EAv = np.exp(psiA + v * WA)
        rowA = EAv * pa                                         # EA(v) phA(v-)
        rowB = (EAv if same else np.exp(psiB + v * WB)) * pb    # EB(v) phB(v-)
        covF[idx] = jumpA[m] * rowA
        covG[idx] = dG = jumpB[m] * rowB
        cG1[:n] += dG - compensator(left[:n], rowB, v - prev[:n, None])
        pa *= pjA[m]
        pb *= pjB[m]
        np.multiply(rowB, pjB[m], out=left[:n])
        prev[:n] = v[:, 0]
    endB = np.exp(-1j * cdB)                       # EB(1)
    cG1 -= compensator(left, endB * phB, (1.0 - prev)[:, None])
    back = np.argsort(order)
    return (fhat * np.exp(-1j * cdA)) * phA[back], cG1[back], covF, covG


# ---------------------------------------------------------------------------
# Brownian branch
# ---------------------------------------------------------------------------


def lattice_axes(kint):
    """Per axis of the (K, d) integer lattice coordinates kint, the largest
    |k| and the rows that gather the band from that axis's FFT-order table
    (None when the band is the table itself, k = 0 .. m, -m .. -1)."""
    axes = []
    for k in kint.T:
        m = int(np.abs(k).max())
        rows = k % (2 * m + 1)
        axes.append((m, None if np.array_equal(rows, np.arange(2 * m + 1)) else rows))
    return axes


def lattice_phases(theta, axes):
    """e^{-i sum_ax kint[k, ax] theta[p, ax]} as a (K, P) array, modes by paths.

    theta is (P, d) and axes = lattice_axes(kint).  Per axis, the powers
    w^0 .. w^m of w = e^{-i theta} come from repeated doubling
    (w^{n+j} = w^n w^j, a contiguous block of rows at a time) and the negative
    powers by conjugation, laid out in FFT order (row k mod (2m+1) holds w^k).
    A band in that order is the table itself; any other band is gathered from
    it.  The axes multiply.
    """
    P = theta.shape[0]
    out = None
    for ax, (m, rows) in enumerate(axes):
        table = np.empty((2 * m + 1, P), dtype=complex)
        table[0] = 1.0
        if m:
            table[1] = np.exp(-1j * theta[:, ax])
        n = 2
        while n <= m:
            hi = min(2 * n, m + 1)
            np.multiply(table[:hi - n], table[n - 1] * table[1], out=table[n:hi])
            n *= 2
        np.conjugate(table[m:0:-1], out=table[m + 1:])
        phase = table if rows is None else np.take(table, rows, axis=0)
        out = phase if out is None else out * phase
    return out


def brownian_accumulate(dW, EA, EB, U, GB, kint, TA, TB, fhat, coarse: bool = False):
    """Euler accumulation along a block of Brownian paths.

    dW is (P, steps, n); kint holds the band's integer lattice coordinates
    and TA, TB the (d, n) angle maps (2 pi / L_ax) A[ax, :], so that the
    phase of mode k at the path point W is e^{-i(kint_k, TA W)}; when TA
    equals TB one phase table serves both maps.  Returns (cF1, cG1, Tcov,
    cG1_coarse): endpoint coefficients of f(x + A W_1), the Ito-sum
    coefficients of G1, the in-path covariation x-integral, and, with coarse
    (steps even), the Ito sum of G1 at steps/2 on the same path: its points
    are the even fine points and its increments dW[:, s] + dW[:, s + 1],
    so it reuses the fine step's phases (None without coarse).

    The per-step state (phases and accumulators) is held modes by paths,
    (K, P), so every product runs over contiguous rows; the results are
    transposed to (P, K) once at the end.  When TA equals TB the phase
    product phA conj(phB) is |e^{-i(k, theta)}|^2 = 1, so every path's Tcov
    is the one sum h sum_s sum_k U_k EA[s, k] EB[s, k]: the covariation
    route then carries no Monte-Carlo error.
    """
    P, steps, n = dW.shape
    if coarse and steps % 2:
        raise ValueError(f"steps = {steps} is odd: the coarse level pairs the fine steps")
    h = 1.0 / steps
    K = fhat.size
    axes = lattice_axes(kint)
    W = np.cumsum(dW, axis=1)               # path point at the end of each step
    same = np.array_equal(TA, TB)
    # (P or 2P, steps, d): A rows, then B rows unless the maps coincide
    theta = W @ TA.T if same else np.concatenate([W @ TA.T, W @ TB.T])
    del W                                   # as large as dW, and not read again
    cG1 = np.zeros((K, P), dtype=complex)
    cG1_coarse = np.zeros_like(cG1) if coarse else None
    term = np.empty_like(cG1)

    def add_ito(acc, GBs, dw, ph):
        """acc += (GBs @ dw) * ph, one increment axis at a time."""
        for j in range(n):
            np.multiply(ph, dw[j], out=term)
            np.multiply(term, GBs[:, j, None], out=term)
            acc += term

    if same:
        Tcov = np.full(P, h * (np.einsum("sk,sk->k", EA, EB) @ U))
    else:
        Tcov = np.zeros(P, dtype=complex)
    phA = phB = np.ones((K, P), dtype=complex)
    for s in range(steps):
        GBs = EB[s][:, None] * GB            # (K, n)
        if not same:
            Tcov += h * ((U * EA[s] * EB[s]) @ (phA * np.conj(phB)))
        add_ito(cG1, GBs, dW[:, s].T, phB)
        if coarse and s % 2 == 0:
            add_ito(cG1_coarse, GBs, (dW[:, s] + dW[:, s + 1]).T, phB)
        ph = lattice_phases(theta[:, s], axes)
        phA, phB = (ph, ph) if same else (ph[:, :P], ph[:, P:])
    return ((fhat[:, None] * phA).T, cG1.T, Tcov,
            None if cG1_coarse is None else cG1_coarse.T)
