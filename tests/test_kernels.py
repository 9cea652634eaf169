"""The Monte-Carlo kernels against direct per-mode references."""

import numpy as np
import pytest

from levymult import AtomsMeasure, Modulator, gaussian_bump, make_data, table_mod
from levymult import kernels, mc
from levymult.kernels import brownian_accumulate, lattice_axes, lattice_buffers, lattice_phases
from levymult.mc import check_subordination, run_cpp_paths

from _traces import JumpPath, general_G, simulate_cpp


def test_numpy_backend_handles_empty_blocks():
    # intensity so small the whole block will have zero jumps
    nu = AtomsMeasure([[2.0]], [1e-12])
    data = make_data(nu)
    f = gaussian_bump(40.0, 256, 1)
    mod = Modulator(phi=table_mod([1.0]))
    stats = run_cpp_paths(f, f, data, mod, 64, 1)
    assert np.all(stats["njumps"] == 0)
    assert np.all(stats["cov"] == 0.0)
    assert np.all(np.isfinite(stats["pair"]))
    # the kernel's per-jump point values are then a (2, 64, 0) array
    assert check_subordination(f, f, data, mod, 64, 1, [0.3]) == (0, 0, 0.0)


def _compensator_model(case):
    if case == "unit-atom":
        # WB = -psiB - i cdB vanishes at xi = 0 and, for the atom at 1, at xi = 2 pi (k = 40)
        return (make_data(AtomsMeasure([[1.0]], [1.0]), A=[[1.0]], B=[[1.0]]),
                Modulator(phi=table_mod([0.6 - 0.3j])))
    # net drift h != 0 (the atom inside the unit ball and gamma), so cdA, cdB != 0
    return (make_data(AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4]), gamma=[0.3],
                      A=[[1.0]], B=[[-0.8]]),
            Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j])))


def _compensator_gap(monkeypatch, case):
    """Largest gap between the kernel's G1 and general_G's, over paths and
    points, as a fraction of the largest |G1|; general_G integrates each
    interval's compensator by Gauss-Legendre quadrature."""
    data, mod = _compensator_model(case)
    f = gaussian_bump(40.0, 256, 1, center=[0.5], width=0.9)
    g = gaussian_bump(40.0, 256, 1, center=[-0.3], width=1.1)
    seen = []
    with monkeypatch.context() as mp:
        mp.setattr(mc, "cpp_pair_coeffs", lambda *a: seen.append(a[3:]))
        band, blocks = mc._cpp_blocks(f, g, data, mod, 2, 1)
        next(blocks)
    setup = seen[0]
    psiB, cdB = setup[5], setup[9]
    xi = g.xi[band][:, 0]
    if case == "unit-atom":
        zero = np.isin(np.round(xi / (2.0 * np.pi), 12), [-1.0, 0.0, 1.0])
        assert np.count_nonzero(zero) == 3
        assert np.all(np.abs(psiB[zero] + 1j * cdB[zero]) < 1e-12)
    else:
        assert np.all(cdB[xi != 0.0] != 0.0)
    nu = data.nu
    # no jumps; jumps 1e-12 apart; jumps at the ends of (0, 1]; sampled paths
    paths = [(np.zeros(0), np.zeros(0, dtype=np.int64)),
             (np.array([0.3, 0.3 + 1e-12, 0.8]), np.array([0, nu.weights.size - 1, 0])),
             (np.array([1e-9, 0.5, 1.0]), np.zeros(3, dtype=np.int64))]
    paths += [(p.times, p.marks) for p in (simulate_cpp(nu, 5, i) for i in range(5))]
    offsets = np.cumsum([0] + [t.size for t, _ in paths])
    times = np.concatenate([t for t, _ in paths])
    marks = np.concatenate([m for _, m in paths])
    with np.errstate(divide="ignore", invalid="ignore"):
        cG1 = kernels.cpp_pair_coeffs(times, marks, offsets, *setup)[1]
    got, want = [], []
    for x in (-1.0, 0.3, 2.0):
        got.append(cG1 @ mc._point_phases(g, band, np.array([x])))
        want.append([general_G(JumpPath(t, m, nu.atoms[m], nu.total_mass), g, data.B, mod,
                               data, [x], nodes=16).final for t, m in paths])
    got, want = np.array(got), np.array(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("case", ["unit-atom", "drifted"])
def test_compensator_matches_quadrature_trace(monkeypatch, case):
    """The telescoped compensator, (EB(v) - EB(a)) / WB off the modes with
    |WB| < W_CUT and dt q(dt WB) on them, against the per-interval oracle."""
    assert _compensator_gap(monkeypatch, case) <= 1e-12


def test_compensator_cut_guards_the_zero_modes(monkeypatch):
    # planted fault: with no cut the xi = 0 mode divides 0 by WB = 0 (the
    # unplanted run is test_compensator_matches_quadrature_trace[unit-atom])
    monkeypatch.setattr(kernels, "W_CUT", 0.0)
    assert not _compensator_gap(monkeypatch, "unit-atom") <= 1e-12


@pytest.mark.parametrize("d, band", [(1, "fft-order"), (1, "scattered"), (2, "scattered")])
def test_lattice_phases_match_direct_exponentials(d, band):
    rng = np.random.default_rng(4)
    L = np.array([40.0, 25.0])[:d]
    if band == "fft-order":
        kint = np.r_[0:513, -512:0][:, None]
    else:
        kint = rng.integers(-512, 513, size=(300, d))
        kint[0] = 512
        kint[1] = -512
        kint[2] = 0
    theta = rng.normal(scale=0.3, size=(7, d))
    axes = lattice_axes(kint)
    # buffers for more columns than theta has, as for a step run's last, shorter table
    got = lattice_phases(theta / L * 2.0 * np.pi, axes, lattice_buffers(axes, 9))
    want = np.exp(-1j * (kint * 2.0 * np.pi / L) @ theta.T)
    assert got.shape == (kint.shape[0], 7)
    assert np.max(np.abs(got - want)) < 1e-12


def _negatives(kint, N):
    """Position in the band of each mode's negative on the grid (mod N per
    axis, so a Nyquist coordinate -N/2 is its own negative)."""
    N = np.asarray(N)
    at = {tuple(k): i for i, k in enumerate(kint)}
    return np.array([at[tuple(k)] for k in (N // 2 - kint) % N - N // 2])


def _decays(rates, steps):
    """(steps, K) table of e^{-(1 - s h) r_k}, the per-step decay of each mode."""
    return np.exp(-np.outer(1.0 - np.arange(steps) / steps, rates))


def _reference_brownian(dW, rA, rB, U, GB, zA, zB, fhat):
    """Per-step Euler loop with one complex exponential per mode and path,
    on (steps, K) decay tables of its own: the band coefficients cF1, cG1
    and the covariation sum Tcov."""
    P, steps, n = dW.shape
    h = 1.0 / steps
    EA, EB = _decays(rA, steps), _decays(rB, steps)
    phA = np.ones((P, fhat.size), dtype=complex)
    phB = np.ones((P, fhat.size), dtype=complex)
    cG1 = np.zeros((P, fhat.size), dtype=complex)
    Tcov = np.zeros(P, dtype=complex)
    for s in range(steps):
        gb = EB[s] * phB
        Tcov += h * ((U * EA[s] * EB[s]) * phA * np.conj(phB)).sum(axis=1)
        cG1 += (dW[:, s, :] @ GB.T) * gb
        phA = phA * np.exp(-1j * (dW[:, s, :] @ zA.T))
        phB = phB * np.exp(-1j * (dW[:, s, :] @ zB.T))
    return fhat * phA, cG1, Tcov


def _reference_pair(neg, *args):
    """Per path, the Parseval sum sum_k cF1[k] cG1[neg k] of the reference
    loop and its Tcov."""
    cF1, cG1, Tcov = _reference_brownian(*args)
    return (cF1 * cG1[:, neg]).sum(axis=1), Tcov


def _assert_close(got, want, name):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def _lattice_case(rng, L, N, A, B, K, P, steps):
    """Kernel inputs on the full lattice of an N grid: (dW, rA, rB, U, GB,
    kint, neg, TA, TB, fhat) and the mapped frequencies (zA, zB)."""
    axes = [np.fft.fftfreq(m, 1.0 / m) for m in N]
    kint = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1).astype(np.int64)
    turns = 2.0 * np.pi / np.asarray(L)
    Xi = kint * turns
    zA, zB = Xi @ A, Xi @ B
    rA, rB = 0.5 * (zA * zA).sum(axis=1), 0.5 * (zB * zB).sum(axis=1)
    fhat = rng.normal(size=Xi.shape[0]) + 1j * rng.normal(size=Xi.shape[0])
    ghat = rng.normal(size=Xi.shape[0]) + 1j * rng.normal(size=Xi.shape[0])
    U = fhat * ghat * np.einsum("kj,kj->k", zA, zB @ K.T)
    GB = -1j * ghat[:, None] * (zB @ K.T)
    dW = rng.normal(scale=np.sqrt(1.0 / steps), size=(P, steps, A.shape[1]))
    return ((dW, rA, rB, U, GB, kint, _negatives(kint, N), turns[:, None] * A,
             turns[:, None] * B, fhat), (zA, zB))


# with A = B the kernel builds one phase table for both maps; the 16 x 16
# lattice holds the Nyquist coordinate -8, its own negative
@pytest.mark.parametrize("case", ["1d-A!=B", "2d-nondiagonal-A", "2d-A=B"])
def test_brownian_kernel_matches_direct_exponentials(case):
    rng = np.random.default_rng(9)
    if case == "1d-A!=B":
        L, N = [40.0], (63,)     # odd: a symmetric band in FFT order
        A, B = np.array([[1.0]]), np.array([[-0.8]])
        K = np.array([[0.9j]])
    else:
        L, N = [20.0, 16.0], (16, 16)
        A = np.array([[1.0, 0.4], [-0.3, 0.9]])
        B = A.copy() if case == "2d-A=B" else np.array([[0.7, 0.0], [0.2, 1.1]])
        K = np.array([[0.3, 0.5j], [0.4, -0.2]])
    args, (zA, zB) = _lattice_case(rng, L, N, A, B, K, 5, 40)
    pair, Tcov, diff = brownian_accumulate(*args)
    want = _reference_pair(args[6], *args[:5], zA, zB, args[9])
    assert diff is None
    for name, a, b in zip(("pair", "Tcov"), (pair, Tcov), want):
        _assert_close(a, b, name)


def _one_dimensional_kernel_case(b):
    """Kernel inputs on a 1-D band in FFT order, A = 1 and B = b."""
    rng = np.random.default_rng(21)
    kint = np.r_[0:32, -31:0][:, None]
    turns = 2.0 * np.pi / 40.0
    A, B = np.array([[1.0]]), np.array([[b]])
    zA, zB = kint * turns @ A, kint * turns @ B
    P, steps = 6, 30
    rA, rB = 0.5 * (zA * zA).sum(axis=1), 0.5 * (zB * zB).sum(axis=1)
    fhat, ghat = rng.normal(size=(2, kint.shape[0])) + 1j * rng.normal(size=(2, kint.shape[0]))
    U = fhat * ghat * 0.7j * (zA * zB)[:, 0]
    GB = -1j * ghat[:, None] * 0.7j * zB
    dW = rng.normal(scale=np.sqrt(1.0 / steps), size=(P, steps, 1))
    neg = _negatives(kint, [63])
    return (dW, rA, rB, U, GB, kint, neg, turns * A, turns * B, fhat), (zA, zB)


def test_brownian_covariation_with_A_equal_B_is_one_closed_sum():
    """With A = B, phA conj(phB) = 1: every path's Tcov is h sum_s sum_k U EA EB."""
    args, _ = _one_dimensional_kernel_case(1.0)
    dW, rA, rB, U = args[:4]
    steps = dW.shape[1]
    Tcov = brownian_accumulate(*args)[1]
    closed = (U * _decays(rA, steps) * _decays(rB, steps)).sum() / steps
    assert np.all(Tcov == Tcov[0])
    assert abs(Tcov[0] - closed) <= 1e-14 * abs(closed)


def test_brownian_kernel_one_ulp_from_A_equal_B_sums_per_path():
    """TB one ulp off TA takes the per-path covariation sum, which still
    matches the direct per-mode reference."""
    args, (zA, zB) = _one_dimensional_kernel_case(1.0)
    TB = np.nextafter(args[8], 2.0)
    assert not np.array_equal(args[7], TB)
    pair, Tcov, _ = brownian_accumulate(*args[:8], TB, args[9])
    want = _reference_pair(args[6], *args[:5], zA, zB, args[9])
    for name, a, b in zip(("pair", "Tcov"), (pair, Tcov), want):
        _assert_close(a, b, name)
    assert not np.all(Tcov == Tcov[0])


@pytest.mark.parametrize("same", [False, True])
def test_brownian_coarse_level_over_uneven_step_runs(monkeypatch, same):
    """d = n = 2 with the coarse level on and 10 steps in runs of 4, 4 and 2:
    pair and diff match the reference, and no table the kernel is still
    reading is overwritten before the next build (odd N, so no Nyquist
    coordinate, whose modes the kernel corrects in the table)."""
    rng = np.random.default_rng(33)
    A = np.array([[1.0, 0.4], [-0.3, 0.9]])
    B = A.copy() if same else np.array([[0.7, 0.0], [0.2, 1.1]])
    K = np.array([[0.3, 0.5j], [0.4, -0.2]])
    P, steps = 5, 10
    args, (zA, zB) = _lattice_case(rng, [20.0, 16.0], (9, 7), A, B, K, P, steps)
    cols = (1 if same else 2) * P       # table columns per step
    monkeypatch.setattr(kernels, "STEP_RUN_VALUES", 63 * cols * 4)
    built = []
    build = kernels.lattice_phases

    def checked(theta, axes, buffers):
        """Check the last table is as it was built, then build the next."""
        if built:
            assert np.array_equal(built[-1][0], built[-1][1])
        table = build(theta, axes, buffers)
        assert not np.shares_memory(table, theta)
        built.append((table, table.copy()))
        return table

    monkeypatch.setattr(kernels, "lattice_phases", checked)
    pair, Tcov, diff = brownian_accumulate(*args, coarse=True)
    assert np.array_equal(built[-1][0], built[-1][1])
    assert [t.shape[1] for t, _ in built] == [4 * cols, 4 * cols, 2 * cols]
    dW, neg = args[0], args[6]
    fine, Tref = _reference_pair(neg, *args[:5], zA, zB, args[9])
    coarse, _ = _reference_pair(neg, dW[:, 0::2] + dW[:, 1::2], *args[1:5], zA, zB, args[9])
    _assert_close(pair, fine, "pair")
    _assert_close(Tcov, Tref, "Tcov")
    _assert_close(diff, fine - coarse, "diff")


def test_brownian_kernel_odd_steps_with_coarse_level_is_named():
    args, _ = _one_dimensional_kernel_case(-0.8)
    dW = args[0][:, :29]
    with pytest.raises(ValueError, match="steps = 29"):
        brownian_accumulate(dW, *args[1:], coarse=True)
