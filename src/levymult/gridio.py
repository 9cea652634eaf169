"""Serialization of symbol grids and sampled fields.

Binary layout (little-endian), magic 8 bytes then header then payload:

    magic   b"LMGRID1\\0" for symbol grids, b"LMFIELD1" for fields
    d       uint64
    N       d x uint64    points per axis
    L       d x float64   box length per axis
    payload 2 * prod(N) float64, interleaved re/im

Symbol-grid rows run in row-major order over ascending frequencies
(k = -N/2 .. N/2-1 per axis); field rows run in row-major space order.
CSV files carry the coordinates plus re/im columns with 17 significant
digits, in the same row order, so identical inputs give byte-identical
files.
"""

import struct

import numpy as np

from .errors import ParseError
from .grids import Grid
from .spectral import SampledField
from .symbols import SymbolGrid, symbol_grid_from_values

GRID_MAGIC = b"LMGRID1\x00"
FIELD_MAGIC = b"LMFIELD1"

_FMT = "%.17g"


def _write_binary(path, magic, grid: Grid, flat_complex):
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", grid.d))
        fh.write(np.asarray(grid.N, dtype="<u8").tobytes())
        fh.write(np.asarray(grid.L, dtype="<f8").tobytes())
        inter = np.empty(2 * flat_complex.size)
        inter[0::2] = flat_complex.real
        inter[1::2] = flat_complex.imag
        fh.write(inter.astype("<f8").tobytes())


def _read_binary(path, magic):
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:8] != magic:
        raise ParseError(f"bad magic {buf[:8]!r}, expected {magic!r}")
    if len(buf) < 16:
        raise ParseError(f"header of {path} cut short inside d: {len(buf)} bytes")
    d = struct.unpack_from("<Q", buf, 8)[0]
    start = 16 + 16 * d
    if len(buf) < start:
        raise ParseError(f"header of {path} cut short: d = {d} needs {start} bytes, "
                         f"the file has {len(buf)}")
    N = np.frombuffer(buf, dtype="<u8", count=d, offset=16).astype(int)
    L = np.frombuffer(buf, dtype="<f8", count=d, offset=16 + 8 * d).copy()
    try:
        grid = Grid(d, L, N)
    except ValueError as exc:
        raise ParseError(f"bad header in {path}: {exc}") from None
    expected = 16 * grid.size
    if len(buf) - start != expected:
        raise ParseError(f"payload holds {len(buf) - start} bytes, expected {expected}")
    raw = np.frombuffer(buf, dtype="<f8", offset=start)
    if not np.isfinite(raw).all():
        raise ParseError(f"payload of {path} holds non-finite values")
    return grid, raw[0::2] + 1j * raw[1::2]


def write_symbol_grid(path, grid: SymbolGrid):
    _write_binary(path, GRID_MAGIC, grid, grid.flat[grid.order])


def read_symbol_grid(path) -> SymbolGrid:
    grid, flat = _read_binary(path, GRID_MAGIC)
    values = np.empty(flat.size, dtype=complex)
    values[grid.order] = flat
    return symbol_grid_from_values(values, grid, check_bound=False)


def write_field(path, field: SampledField):
    _write_binary(path, FIELD_MAGIC, field, field.values.ravel())


def read_field(path) -> SampledField:
    grid, flat = _read_binary(path, FIELD_MAGIC)
    return SampledField(d=grid.d, L=grid.L, N=grid.N, values=flat)


def _points_csv(coord: str, value: str, pts, vals) -> str:
    """Header coord_1, .., coord_d, re_value, im_value, then one row per point."""
    lines = [",".join(f"{coord}_{i + 1}" for i in range(pts.shape[1]))
             + f",re_{value},im_{value}"]
    for row, v in zip(pts, vals):
        lines.append(",".join(_FMT % c for c in row) + f",{_FMT % v.real},{_FMT % v.imag}")
    return "\n".join(lines) + "\n"


def symbol_grid_csv(grid: SymbolGrid) -> str:
    return _points_csv("xi", "m", grid.xi[grid.order], grid.flat[grid.order])


def field_csv(field: SampledField) -> str:
    mesh = np.meshgrid(*field.space_axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return _points_csv("x", "f", pts, field.values.ravel())


def probe_report_csv(reports) -> str:
    lines = ["p,bound,best_ratio,trials,seed,pass"]
    for r in reports:
        lines.append(
            f"{_FMT % r.p},{_FMT % r.bound},{_FMT % r.best_ratio},"
            f"{r.trials},{r.seed},{str(r.passed).lower()}"
        )
    return "\n".join(lines) + "\n"
