"""The Monte-Carlo kernels against direct per-mode references."""

import numpy as np
import pytest

from levymult import AtomsMeasure, Modulator, gaussian_bump, make_data, table_mod
from levymult import kernels, mc
from levymult.kernels import brownian_accumulate, lattice_axes, lattice_phases
from levymult.mc import run_cpp_paths

from _traces import JumpPath, general_G, simulate_cpp


def test_numpy_backend_handles_empty_blocks():
    # intensity so small the whole block will have zero jumps
    nu = AtomsMeasure([[2.0]], [1e-12])
    data = make_data(nu)
    f = gaussian_bump(40.0, 256, 1)
    stats = run_cpp_paths(f, f, data, Modulator(phi=table_mod([1.0])), 64, 1)
    assert np.all(stats["njumps"] == 0)
    assert np.all(stats["cov"] == 0.0)
    assert np.all(np.isfinite(stats["pair"]))


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
        band, _, blocks = mc._cpp_blocks(f, g, data, mod, 2, 1)
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
    got = lattice_phases(theta / L * 2.0 * np.pi, lattice_axes(kint))
    want = np.exp(-1j * (kint * 2.0 * np.pi / L) @ theta.T)
    assert got.shape == (kint.shape[0], 7)
    assert np.max(np.abs(got - want)) < 1e-12


def _reference_brownian(dW, EA, EB, U, GB, zA, zB, fhat):
    """Per-step Euler loop with one complex exponential per mode and path."""
    P, steps, n = dW.shape
    h = 1.0 / steps
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


# with A = B the kernel builds one phase table for both maps
@pytest.mark.parametrize("case", ["1d-A!=B", "2d-nondiagonal-A", "2d-A=B"])
def test_brownian_kernel_matches_direct_exponentials(case):
    rng = np.random.default_rng(9)
    if case == "1d-A!=B":
        L, N = np.array([40.0]), (63,)     # odd: a symmetric band in FFT order
        A, B = np.array([[1.0]]), np.array([[-0.8]])
        K = np.array([[0.9j]])
    else:
        L, N = np.array([20.0, 16.0]), (16, 16)
        A = np.array([[1.0, 0.4], [-0.3, 0.9]])
        B = A.copy() if case == "2d-A=B" else np.array([[0.7, 0.0], [0.2, 1.1]])
        K = np.array([[0.3, 0.5j], [0.4, -0.2]])
    axes = [np.fft.fftfreq(n, 1.0 / n) for n in N]
    kint = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1).astype(np.int64)
    turns = 2.0 * np.pi / L
    Xi = kint * turns
    zA, zB = Xi @ A, Xi @ B
    P, steps, n = 5, 40, A.shape[1]
    v = np.arange(steps) / steps
    EA = np.exp(-np.outer(1.0 - v, 0.5 * (zA * zA).sum(axis=1)))
    EB = np.exp(-np.outer(1.0 - v, 0.5 * (zB * zB).sum(axis=1)))
    fhat = rng.normal(size=Xi.shape[0]) + 1j * rng.normal(size=Xi.shape[0])
    ghat = rng.normal(size=Xi.shape[0]) + 1j * rng.normal(size=Xi.shape[0])
    U = fhat * ghat * np.einsum("kj,kj->k", zA, zB @ K.T)
    GB = -1j * ghat[:, None] * (zB @ K.T)
    dW = rng.normal(scale=np.sqrt(1.0 / steps), size=(P, steps, n))

    got = brownian_accumulate(dW, EA, EB, U, GB, kint, turns[:, None] * A,
                              turns[:, None] * B, fhat)
    want = _reference_brownian(dW, EA, EB, U, GB, zA, zB, fhat)
    for name, a, b in zip(("cF1", "cG1", "Tcov"), got, want):
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale, name


def _one_dimensional_kernel_case(b):
    """Kernel inputs on a 1-D band in FFT order, A = 1 and B = b."""
    rng = np.random.default_rng(21)
    kint = np.r_[0:32, -31:0][:, None]
    turns = 2.0 * np.pi / 40.0
    A, B = np.array([[1.0]]), np.array([[b]])
    zA, zB = kint * turns @ A, kint * turns @ B
    P, steps = 6, 30
    v = np.arange(steps) / steps
    EA = np.exp(-np.outer(1.0 - v, 0.5 * (zA * zA).sum(axis=1)))
    EB = np.exp(-np.outer(1.0 - v, 0.5 * (zB * zB).sum(axis=1)))
    fhat, ghat = rng.normal(size=(2, kint.shape[0])) + 1j * rng.normal(size=(2, kint.shape[0]))
    U = fhat * ghat * 0.7j * (zA * zB)[:, 0]
    GB = -1j * ghat[:, None] * 0.7j * zB
    dW = rng.normal(scale=np.sqrt(1.0 / steps), size=(P, steps, 1))
    return (dW, EA, EB, U, GB, kint, turns * A, turns * B, fhat), (zA, zB)


def test_brownian_covariation_with_A_equal_B_is_one_closed_sum():
    """With A = B, phA conj(phB) = 1: every path's Tcov is h sum_s sum_k U EA EB."""
    args, _ = _one_dimensional_kernel_case(1.0)
    dW, EA, EB, U = args[:4]
    Tcov = brownian_accumulate(*args)[2]
    closed = (U * EA * EB).sum() / dW.shape[1]
    assert np.all(Tcov == Tcov[0])
    assert abs(Tcov[0] - closed) <= 1e-14 * abs(closed)


def test_brownian_kernel_one_ulp_from_A_equal_B_sums_per_path():
    """TB one ulp off TA takes the per-path covariation sum, which still
    matches the direct per-mode reference."""
    args, (zA, zB) = _one_dimensional_kernel_case(1.0)
    TB = np.nextafter(args[7], 2.0)
    assert not np.array_equal(args[6], TB)
    got = brownian_accumulate(*args[:7], TB, args[8])
    want = _reference_brownian(*args[:5], zA, zB, args[8])
    for name, a, b in zip(("cF1", "cG1", "Tcov"), got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
    assert not np.all(got[2] == got[2][0])


def test_brownian_kernel_odd_steps_with_coarse_level_is_named():
    args, _ = _one_dimensional_kernel_case(-0.8)
    dW = args[0][:, :29]
    with pytest.raises(ValueError, match="steps = 29"):
        brownian_accumulate(dW, *args[1:], coarse=True)
