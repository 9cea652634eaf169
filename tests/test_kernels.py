"""The Monte-Carlo kernels against direct per-mode references."""

import numpy as np
import pytest

from levymult import AtomsMeasure, Modulator, gaussian_bump, make_data, table_mod
from levymult.kernels import brownian_accumulate, lattice_phases
from levymult.mc import run_cpp_paths


def test_numpy_backend_handles_empty_blocks():
    # intensity so small the whole block will have zero jumps
    nu = AtomsMeasure([[2.0]], [1e-12])
    data = make_data(nu)
    f = gaussian_bump(40.0, 256, 1)
    stats = run_cpp_paths(f, f, data, Modulator(phi=table_mod([1.0])), 64, 1)
    assert np.all(stats["njumps"] == 0)
    assert np.all(stats["cov"] == 0.0)
    assert np.all(np.isfinite(stats["pair"]))


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
    got = lattice_phases(theta / L * 2.0 * np.pi, kint)
    want = np.exp(-1j * theta @ (kint * 2.0 * np.pi / L).T)
    assert got.shape == (7, kint.shape[0])
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
