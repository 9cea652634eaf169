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
are (atoms, modes) tables whose rows are gathered by mark.  No per-jump
row leaves the kernel: it sums each jump's sum_k dF_i[k] dG_i[-k] into its path.
Each jump row's band factor EA_k(v_i) (EB alike) takes no complex exponential:
with x = (1 - v) Re psiA_k and y = Im psiA_k + v Im WA_k it is
e^x (1 + (cos y - 1)) + i e^x sin y, from one tangent and one real
exponential (levy._cexp), which numpy vectorises where its complex exp is a
scalar loop.  The paths' running state and every step's rows live in work
arrays allocated once per call, which each step overwrites in place.

Between jumps the phase e^{-i(zB_k, y - h t)} is fixed, and the compensator
integrand is ghat_k S_k times it times EB_k(t), the atom sum ghat_k S_k being
the second table summed over the atom masses w_m.  As dEB/dt = WB EB,

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
path and axis, modes by paths (K, P), so the doubling multiplies contiguous
row blocks.

The Brownian estimator reads each path's Parseval sum sum_k cF1[k] cG1[-k]
only.  With the angle maps TA = (2 pi / L) A, TB = (2 pi / L) B, W_s the
path point at the left end of step s (W_0 = 0) and the decay
EB[s, k] = e^{-(1 - s h) rB_k} of the per-mode rate rB_k (rA_k alike),
cF1[k] = fhat_k e^{-i(k, TA W_1)} and the Ito sum is cG1[k] = sum_s
EB[s, k] (GB[k], dW_s) e^{-i(k, TB W_s)}, so the two phases meet in one
table per step,

    V_s = sum_k fhat_k EB[s, -k] GB[-k, :] e^{-i(k, TA W_1 - TB W_s)},

an (n, K) @ (K, P) product, and the pairing is pair = sum_s (V_s, dW_s): no
(K, P) accumulator is kept.  The coarse level at steps/2 takes the even
points with the increments dW_s + dW_{s+1}, so fine minus coarse is

    diff = sum_{s even} (V_{s+1} - V_s, dW_{s+1}).

A Nyquist coordinate (k = -N/2) is its own negative on the grid, so a mode
holding one takes e^{-i(delta_k, TB W_s)} on top of its table value, delta_k
= k + (lattice point of -k).  The covariation integrand's phase is
e^{-i(k, (TA - TB) W_s)}; with A = B it is 1, so the covariation x-integral
is one sum over steps and modes, the same for every path, and its
Monte-Carlo standard error is roundoff.
"""

import numpy as np

from .levy import _cexp
from .symbols import q_func

W_CUT = 0.1   # modes with |WB| below this integrate the compensator by q_func
STEP_RUN_VALUES = 1 << 16   # phase values per Brownian table build; sets the steps it covers


def cpp_pair_coeffs(times, marks, offsets, zatoms, phi_atoms,
                    fhat, ghat, psiA, psiB, zA, zB, cdA, cdB, weights, neg, at=None):
    """(cF1, cG1, pair, cov, points) of a block of compound-Poisson paths whose marks
    index zatoms, of masses weights: the (P, K) band coefficients of F1, G1; per path
    pair = sum_k cF1[k] cG1[neg k] (neg: the band position of each mode's negative)
    and cov, the sum over its jumps of sum_k dF_i[k] dG_i[neg k]; points, given the
    band phases at of a point (K,) or points (K, M), the (2, P, most jumps) +
    at.shape[1:] values dF_i @ at, dG_i @ at with zeros after a path's last jump
    (else None).  Paths run ordered by jump count, most first: those jumping at step j lead.
    Each jump row's EA(v), EB(v) come from levy._cexp, with no complex exp (the atom
    tables and the end pass, cF1 among it, keep numpy's), into rows reused by every step."""
    P, K = offsets.size - 1, fhat.size
    counts = np.diff(offsets)
    order = np.argsort(-counts, kind="stable")
    first = offsets[:-1][order]
    most = counts.max(initial=0)
    pjA = np.exp(-1j * (zatoms @ zA.T))            # (atoms, modes) jump factors
    pjB = np.exp(-1j * (zatoms @ zB.T))
    jumpA = fhat * (pjA - 1.0)
    jumpB = ghat * (pjB - 1.0) * phi_atoms[:, None]
    WA = -psiA - 1j * cdA
    WB = -psiB - 1j * cdB
    same = np.array_equal(psiA, psiB) and np.array_equal(cdA, cdB)   # EA = EB
    gS = weights @ jumpB                            # ghat S, the compensator's atom sum
    big = np.abs(WB) >= W_CUT
    small = np.flatnonzero(~big)
    gS_W = np.divide(gS, WB, out=np.zeros_like(gS), where=big)

    def compensator(left, right, dt, out):
        """ghat S times the integral of EB times the phase over an interval,
        from the interval's ends left = EB(a) phase, right = EB(v) phase."""
        np.multiply(gS_W, np.subtract(right, left, out=out), out=out)
        if small.size:
            out[:, small] = gS[small] * left[:, small] * dt * q_func(dt * WB[small])
        return out

    # work arrays allocated once per call hold the paths' state and each step's
    # rows, so the steps reuse their pages instead of allocating (P, K) temporaries
    work = np.empty((9, P, K), dtype=complex)
    cG1, phA, phB, left = work[:4]
    cG1[:], phA[:], phB[:] = 0.0, 1.0, 1.0
    left[:] = np.exp(psiB)                          # EB(a) phB at the interval's left end a
    parts = np.empty((2, P, K))                     # real x, y of e^{x + iy}

    def band_factor(psi, W, v, out):
        """EA(v) = e^{x + iy}, x = (1 - v) Re psiA, y = Im psiA + v Im WA (EB alike)."""
        x, y = parts[:, :v.shape[0]]
        np.multiply(1.0 - v, psi.real, out=x)
        np.multiply(v, W.imag, out=y)
        y += psi.imag
        return _cexp(x, y, out)

    cov = np.zeros(P, dtype=complex)
    points = None if at is None else np.zeros((2, P, most) + at.shape[1:], dtype=complex)
    prev = np.zeros(P)
    for j in range(most):
        n = np.count_nonzero(counts > j)
        idx = first[:n] + j
        v = times[idx][:, None]
        m = marks[idx]
        pa, pb = phA[:n], phB[:n]
        rowA, rowB, dF, dG, tmp = work[4:9, :n]
        band_factor(psiA, WA, v, rowA)
        if same:
            np.multiply(rowA, pb, out=rowB)
        else:
            band_factor(psiB, WB, v, rowB)
            rowB *= pb                              # EB(v) phB(v-)
        rowA *= pa                                  # EA(v) phA(v-)
        np.take(jumpA, m, axis=0, out=dF, mode="clip")   # "raise" would buffer out
        dF *= rowA
        np.take(jumpB, m, axis=0, out=dG, mode="clip")
        dG *= rowB
        np.take(dG, neg, axis=1, out=tmp, mode="clip")
        np.multiply(dF, tmp, out=tmp)
        cov[:n] += tmp.sum(axis=1)
        if at is not None:
            points[:, order[:n], j] = dF @ at, dG @ at
        compensator(left[:n], rowB, v - prev[:n, None], tmp)
        np.subtract(dG, tmp, out=tmp)
        cG1[:n] += tmp
        np.take(pjA, m, axis=0, out=tmp, mode="clip")
        pa *= tmp
        np.take(pjB, m, axis=0, out=tmp, mode="clip")
        pb *= tmp
        np.multiply(rowB, tmp, out=left[:n])
        prev[:n] = v[:, 0]
    endB = np.exp(-1j * cdB)                       # EB(1)
    cG1 -= compensator(left, endB * phB, (1.0 - prev)[:, None], work[4])
    back = np.argsort(order)
    cF1, cG1 = (fhat * np.exp(-1j * cdA)) * phA[back], cG1[back]
    return cF1, cG1, (cF1 * cG1[:, neg]).sum(axis=1), cov[back], points


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


def lattice_buffers(axes, cols):
    """Flat work arrays for lattice_phases on up to cols columns: one table
    per axis and, for a gathered band, the product and (d >= 2) one gather."""
    tables = [np.empty((2 * m + 1) * cols, dtype=complex) for m, _ in axes]
    gathered = [rows.size for _, rows in axes if rows is not None]
    spare = [np.empty(size * cols, dtype=complex) for size in gathered[:2]]
    return tables, spare


def _leading(buf, rows, cols):
    """The first rows * cols values of a flat buffer as a C-ordered (rows, cols) array."""
    return buf[:rows * cols].reshape(rows, cols)


def lattice_phases(theta, axes, buffers):
    """e^{-i sum_ax kint[k, ax] theta[p, ax]} as a (K, P) array, modes by paths.

    theta is (P, d) and axes = lattice_axes(kint).  Per axis, the powers
    w^0 .. w^m of w = e^{-i theta} come from repeated doubling
    (w^{n+j} = w^n w^j, a contiguous block of rows at a time) and the negative
    powers by conjugation, laid out in FFT order (row k mod (2m+1) holds w^k).
    A band in that order is the table itself; any other band is gathered from
    it.  The axes multiply.  Tables, gathers and the product are written into
    buffers = lattice_buffers(axes, cols), cols >= P, and the result is a
    view of them, valid until the next call on the same buffers.
    """
    P = theta.shape[0]
    tables, spare = buffers
    out = None
    for ax, (m, rows) in enumerate(axes):
        table = _leading(tables[ax], 2 * m + 1, P)
        table[0] = 1.0
        if m:
            table[1] = np.exp(-1j * theta[:, ax])
        n = 2
        while n <= m:
            hi = min(2 * n, m + 1)
            np.multiply(table[:hi - n], table[n - 1] * table[1], out=table[n:hi])
            n *= 2
        np.conjugate(table[m:0:-1], out=table[m + 1:])
        if rows is None:
            phase = table
        else:   # the first gather holds the product; later ones go to the other buffer
            phase = _leading(spare[0 if out is None else -1], rows.size, P)
            np.take(table, rows, axis=0, out=phase, mode="clip")   # "raise" would buffer out
        if out is None:
            out = phase
        else:
            np.multiply(out, phase, out=out)
    return out


def brownian_accumulate(dW, rA, rB, U, GB, kint, neg, TA, TB, fhat, coarse: bool = False):
    """Euler pairing along a block of Brownian paths, one value per path.

    dW is (P, steps, n); rA, rB are the per-mode rates var_scale |A^T xi_k|^2
    and var_scale |B^T xi_k|^2 of the decays EA[s, k] = e^{-(1 - s h) rA_k},
    EB alike; kint holds the band's integer lattice coordinates, neg the
    position in the band of each mode's negative, and TA, TB the (d, n)
    angle maps (2 pi / L_ax) A[ax, :], so that the phase of mode k at the
    path point W is e^{-i(kint_k, TA W)}.  Returns (pair, Tcov, diff):
    pair = sum_k cF1[k] cG1[neg k], the Parseval sum (without its dxi/(2 pi)^d)
    of the endpoint coefficients of f(x + A W_1) and the Ito-sum coefficients
    of G1; Tcov, the in-path covariation x-integral; and, with coarse (steps
    even), diff = pair minus the same sum at steps/2 on the increments
    dW[:, s] + dW[:, s + 1] at the even fine points (None without coarse).
    See the module docstring for the one table per step these come from.

    Steps run in even-length runs whose tables hold about STEP_RUN_VALUES
    values, built by one lattice_phases call into buffers allocated once
    here; each run builds its own rows of EB, which the contraction reads at
    the negated modes (at a Nyquist mode of a mixing B, rB of -k is not rB of
    k).  With TA = TB and rA = rB the covariation phase is 1 and every path's
    Tcov is the one sum h sum_s sum_k U_k EB[s, k]^2: the covariation route
    then carries no Monte-Carlo error; otherwise each step also takes a table
    at (TA - TB) W_s.
    """
    P, steps, _ = dW.shape
    if coarse and steps % 2:
        raise ValueError(f"steps = {steps} is odd: the coarse level pairs the fine steps")
    h = 1.0 / steps
    K, d = kint.shape
    same = np.array_equal(TA, TB) and np.array_equal(rA, rB)
    # the maps of the angles summed along the path: TB, then TA - TB unless A = B
    Ts = np.stack([TB.T] if same else [TB.T, (TA - TB).T])   # (c, n, d)
    c = Ts.shape[0]                          # tables per step: the pairing's, the covariation's
    end = dW.sum(axis=1) @ TA.T              # TA W_1, (P, d)
    # a Nyquist coordinate is its own negative: such modes take e^{-i(delta_k, TB W_s)}
    delta = kint + kint[neg]
    fixes = [(ax, v, np.flatnonzero(delta[:, ax] == v))
             for ax in range(d) for v in np.unique(delta[:, ax]) if v]

    run = min(max(2, STEP_RUN_VALUES // (K * c * P) // 2 * 2), steps + steps % 2)
    axes = lattice_axes(kint)
    buffers = lattice_buffers(axes, run * c * P)
    theta = np.empty((run, c, P, d))         # one run's angles, per step, map and path
    carry = np.zeros((c, P, d))              # the angles at the run's first left point
    fG = (fhat[:, None] * GB[neg]).T         # (n, K)
    lag = np.arange(steps)[:, None] * h - 1.0   # s h - 1: EB[s] = e^{lag_s rB}
    pair = np.zeros(P, dtype=complex)
    diff = np.zeros(P, dtype=complex) if coarse else None
    Tcov = np.zeros(P, dtype=complex)
    squares = np.zeros(K)                    # sum_s EB[s, k]^2, read when A = B
    for s0 in range(0, steps, run):
        s1 = min(s0 + run, steps)
        r = s1 - s0
        # TB W_s and (TA - TB) W_s at the left points W_s (W_0 = 0), then TA W_1 - TB W_s
        theta[0] = carry
        np.matmul(dW[:, None, s0:s1 - 1], Ts, out=theta[1:r].transpose(2, 1, 0, 3))
        np.cumsum(theta[:r], axis=0, out=theta[:r])
        carry = theta[r - 1] + dW[:, s1 - 1] @ Ts
        nyquist = [(rows, np.exp(-1j * v * theta[:r, 0, :, ax])) for ax, v, rows in fixes]
        np.subtract(end, theta[:r, 0], out=theta[:r, 0])
        tab = lattice_phases(theta[:r].reshape(-1, d), axes, buffers).reshape(K, r, c, P)
        ph = tab[:, :, 0]                    # (K, r, P)
        for rows, factor in nyquist:
            ph[rows] *= factor
        EB = np.exp(lag[s0:s1] * rB)
        if same:
            squares += np.einsum("sk,sk->k", EB, EB)
        else:
            w = h * U * np.exp(lag[s0:s1] * rA) * EB
            Tcov += np.matmul(w[:, None, :], tab[:, :, 1].transpose(1, 0, 2)).sum(axis=(0, 1))
        V = np.matmul(EB[:, neg][:, None, :] * fG, ph.transpose(1, 0, 2))   # (r, n, P)
        dw = dW[:, s0:s1].transpose(1, 2, 0)
        pair += (V * dw).sum(axis=(0, 1))
        if coarse:
            diff += ((V[1::2] - V[::2]) * dw[1::2]).sum(axis=(0, 1))
    if same:
        Tcov[:] = h * (squares @ U)
    return pair, Tcov, diff
