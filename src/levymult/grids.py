"""The periodic box shared by every route: one `Grid` value.

`Grid(d, L, N)` takes the box lengths L and the point counts N as scalars
or per-axis sequences; its constructor normalises them to d-tuples and
validates them, once.  Every other fact about the box is a member derived
lazily and kept on the grid: the space axes x_j = -L/2 + j L/N (j = 0..N-1
per axis), the frequency lattice xi_k = 2 pi k / L (k in [-N/2, N/2) per
axis, rows in numpy FFT index order) with its integer points k, the
negation index, the sorted order, the DFT signs, dx, the cell volume and
dxi/(2pi)^d.  Everyone holding the grid shares them, so the arrays are
read-only.  SampledField and SymbolGrid extend Grid with their values.
The transform pair used everywhere is

    fhat(xi) = I f(x) e^{+i(xi,x)} dx,    f(x) = (2pi)^{-d} I fhat e^{-i(xi,x)} dxi.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _lattice(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return _read_only(np.stack([m.ravel() for m in mesh], axis=-1))


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^d with N points per axis.

    Raises ValueError, naming the field, for a dimension below 1, a count
    of L or N values other than 1 or d, a box length that is not positive
    and finite, a point count that is not a power of two, or a total point
    count that int64 cannot index.
    """

    d: int
    L: tuple
    N: tuple

    def __post_init__(self):
        d = int(self.d)
        if d < 1 or d != self.d:
            raise ValueError(f"dimension d = {self.d!r} is not a positive integer")
        L, N = ([float(v) for v in np.ravel(vals)] for vals in (self.L, self.N))
        for name, vals in (("L", L), ("N", N)):
            if len(vals) not in (1, d):
                raise ValueError(f"{name} needs 1 or d = {d} values, got {len(vals)}")
        if not all(0.0 < v < np.inf for v in L):
            raise ValueError(f"box length L = {L} is not positive and finite")
        if not all(0 < n < 2**62 and n == int(n) and not int(n) & (int(n) - 1) for n in N):
            raise ValueError(f"grid size N = {N} is not a power of two")
        N = tuple(int(n) for n in (N * d if len(N) == 1 else N))
        if math.prod(N) >= 2**63:
            raise ValueError(f"grid size N = {N} has more points than int64 can index")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "L", tuple(L * d if len(L) == 1 else L))
        object.__setattr__(self, "N", N)

    @property
    def size(self) -> int:
        return math.prod(self.N)

    @cached_property
    def dx(self) -> np.ndarray:
        return _read_only(np.asarray(self.L) / np.asarray(self.N))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @cached_property
    def dxi_norm(self) -> float:
        """dxi/(2pi)^d: the weight of one lattice point in the inverse transform."""
        return float(np.prod(2.0 * np.pi / np.asarray(self.L))) / (2.0 * np.pi) ** self.d

    @cached_property
    def space_axes(self) -> tuple:
        return tuple(_read_only(-L / 2.0 + L / n * np.arange(n))
                     for L, n in zip(self.L, self.N))

    @cached_property
    def k(self) -> np.ndarray:
        """Integer lattice points, (prod(N), d), FFT order."""
        return _lattice([np.fft.fftfreq(n, 1.0 / n).astype(np.int64) for n in self.N])

    @cached_property
    def xi_axes(self) -> tuple:
        """Per-axis frequencies 2 pi k / L in FFT order."""
        return tuple(_read_only(2.0 * np.pi * np.fft.fftfreq(n, d=L / n))
                     for L, n in zip(self.L, self.N))

    @cached_property
    def xi(self) -> np.ndarray:
        """Frequencies 2 pi k / L, (prod(N), d), FFT order."""
        return _lattice(self.xi_axes)

    @cached_property
    def neg(self) -> np.ndarray:
        """Flat index permutation mapping frequency index k to -k (mod N per axis)."""
        idx = np.arange(self.size).reshape(self.N)
        for ax in range(self.d):
            idx = np.flip(np.roll(idx, -1, axis=ax), axis=ax)
        return _read_only(idx.ravel())

    @cached_property
    def order(self) -> np.ndarray:
        """Flat permutation putting FFT-ordered frequencies into ascending order."""
        perm = np.arange(self.size).reshape(self.N)
        for ax, n in enumerate(self.N):
            perm = np.take(perm, np.fft.fftshift(np.arange(n)), axis=ax)
        return _read_only(perm.ravel())

    @cached_property
    def phases(self) -> np.ndarray:
        """(-1)^(k_1 + ... + k_d) in the grid's shape."""
        out = np.ones(self.N)
        for ax, n in enumerate(self.N):
            shape = [1] * self.d
            shape[ax] = n
            out = out * ((-1.0) ** np.arange(n)).reshape(shape)
        return _read_only(out)
