"""Run configuration: a JSON document with strict keys and filled defaults.

parse_config reads it once and builds the run it describes (the Levy data and
modulator, symbol, grid and fields) into a frozen RunConfig.  Complex scalars
are [re, im] arrays.  An unknown key anywhere is rejected by name, so typos
cannot silently change a run, and a malformed value is a named error.
parse(emit(config)) reproduces the config exactly, and emit() output is
canonical (sorted keys), giving byte-stable run reports.
"""

import copy
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValidationError, ParseError
from .grids import Grid
from .levy import (
    AtomsMeasure,
    LevyData,
    ModSpec,
    Modulator,
    RadialProductMeasure,
    SphericalMeasure,
    StableMeasure,
    validate,
)
from .spectral import SampledField, gaussian_bump
from .symbols import SymbolSpec

# blocks shared by phi and psi, and by field and field_g
_WEIGHT = {"kind": "constant", "value": [1.0, 0.0], "axis": 0, "normal": [], "radius": 1.0,
           "harmonic": 1, "table": []}
_BUMP = {"center": [], "width": 1.0, "phase": [], "amplitude": [1.0, 0.0]}

_DEFAULTS = {
    "dimensions": {"d": 1, "n": 1},
    "matrices": {"A": [[1.0]], "B": [[1.0]]},
    "measure": {
        "variant": "atoms",
        "atoms": [[1.0]],
        "weights": [1.0],
        "alpha": 0.5,
        "coeff": 1.0,
        "directions": [],
        "dir_weights": [],
    },
    "sphere": {"directions": [], "weights": []},
    "drift": [],
    "modulator": {"phi": _WEIGHT, "psi": _WEIGHT},
    "symbol": {"variant": "q_form", "K": [], "var_scale": 1.0, "alpha": 0.5,
               "preset": "riesz", "j": 0, "k": 1},
    "grid": {"length": 40.0, "points": 1024},
    "field": {"kind": "gaussian", **_BUMP},
    "field_g": {"kind": "same", **_BUMP},
    "params": {
        "p": [1.25, 1.5, 2.0, 3.0, 4.0],
        "trials": 500,
        "paths": 200000,
        "steps": 2000,
        "u_scale": 1.0,
        "seed": 12345,
        "var_scale": 0.5,
        "ascent_steps": 200,
    },
    "output_dir": "out",
}


def _merge(defaults, given, path=""):
    """Deep merge with unknown-key rejection."""
    if not isinstance(given, dict):
        raise ParseError(f"expected an object at {path or 'top level'}")
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ParseError(f"unknown key {key!r} at {path or 'top level'}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, f"{path}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _number_in(v, low, whole=False):
    """A finite number >= low (an integral one if whole; JSON may write 500.0)."""
    return isinstance(v, (int, float)) and low <= v < np.inf and (not whole or v == int(v))


# (key, test, what the value must be) for the checked dimensions, scalar params
# and field widths
_PARAM_RULES = (
    ("d", lambda v: _number_in(v, 1, whole=True), "an integer >= 1"),
    ("n", lambda v: _number_in(v, 1, whole=True), "an integer >= 1"),
    ("p", lambda v: isinstance(v, list) and v and all(_number_in(x, 1) and x > 1 for x in v),
     "a non-empty list of values in (1, inf)"),
    ("trials", lambda v: _number_in(v, 1, whole=True), "an integer >= 1"),
    ("ascent_steps", lambda v: _number_in(v, 0, whole=True), "an integer >= 0"),
    ("paths", lambda v: _number_in(v, 2, whole=True), "an integer >= 2"),
    ("steps", lambda v: _number_in(v, 2, whole=True) and v % 2 == 0, "an even integer >= 2"),
    ("seed", lambda v: _number_in(v, 0, whole=True) and v < 2**64, "an integer in [0, 2**64)"),
    ("u_scale", lambda v: _number_in(v, 0) and v > 0, "a finite number > 0"),
    ("width", lambda v: _number_in(v, 0) and v > 0, "a finite number > 0"),
)


def check_params(params: dict, prefix: str = "params."):
    """Raise ConfigValidationError naming the first given key that breaks its rule."""
    for key, ok, need in _PARAM_RULES:
        if key in params and not ok(params[key]):
            raise ConfigValidationError(f"{prefix}{key} = {params[key]!r} is not {need}")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A parsed run: `raw` is the defaults-filled document, and the rest are
    the objects it describes, each built once by parse_config."""

    raw: dict
    data: LevyData
    mod: Modulator
    spec: SymbolSpec
    grid: Grid
    field: SampledField
    field_g: SampledField

    params = property(lambda self: self.raw["params"])


def _array(raw, key, shape, dtype=float, empty=None):
    """The array at a dotted key, of the given shape (-1 is any length, () a
    scalar, [] an empty list of rows); a complex entry may be an [re, im] pair,
    and `empty`, if given, stands in for [].  Else ConfigValidationError."""
    value = raw
    for part in key.split("."):
        value = value[part]
    if empty is not None and value == []:
        return empty
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        arr = None
    if arr is not None:
        if arr.size == 0 and len(shape) > 1:
            arr = arr.reshape(0, *shape[1:])
        if dtype is complex and arr.ndim == len(shape) + 1 and arr.shape[-1] == 2:
            arr = np.ascontiguousarray(arr).view(complex)[..., 0]
        if arr.ndim == len(shape) and all(s in (-1, a) for s, a in zip(shape, arr.shape)):
            return arr.astype(dtype)
    raise ConfigValidationError(f"{key} must be an array of shape {shape}, got {value!r}")


def _named(key, build, *args, **kwargs):
    """build(*args, **kwargs), a TypeError, ValueError or OverflowError named by `key`."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigValidationError(f"{key}: {exc}") from None


def _measure(raw, n):
    m = raw["measure"]
    variant = m["variant"]
    if variant == "atoms":
        atoms = _array(raw, "measure.atoms", (-1, n))
        return AtomsMeasure(atoms, _array(raw, "measure.weights", (len(atoms),)))
    if variant == "radial_product":
        directions = _array(raw, "measure.directions", (-1, n))
        return RadialProductMeasure(
            alpha=float(m["alpha"]), coeff=float(m["coeff"]), directions=directions,
            dir_weights=_array(raw, "measure.dir_weights", (len(directions),)))
    if variant == "stable":
        return StableMeasure(alpha=float(m["alpha"]), n=n)
    raise ConfigValidationError(f"unknown measure variant {variant!r}")


def _modspec(raw, name) -> ModSpec:
    block, key = raw["modulator"][name], f"modulator.{name}"
    if block["kind"] == "table":
        return ModSpec(kind="table", table=_array(raw, f"{key}.table", (-1,), complex))
    return ModSpec(
        kind=block["kind"],
        value=complex(_array(raw, f"{key}.value", (), complex)),
        axis=int(block["axis"]),
        normal=tuple(float(v) for v in _array(raw, f"{key}.normal", (-1,))),
        radius=float(block["radius"]),
        harmonic=int(block["harmonic"]),
    )


def _field(raw, which: str, grid: Grid) -> SampledField:
    blk = raw[which]
    if blk["kind"] != "gaussian":
        raise ConfigValidationError(f"unknown {which} kind {blk['kind']!r}")
    check_params(blk, prefix=f"{which}.")
    zeros = np.zeros(grid.d)
    return _named(which, gaussian_bump, grid.L, grid.N, grid.d,
                  center=_array(raw, f"{which}.center", (grid.d,), empty=zeros),
                  width=blk["width"],
                  phase_freq=_array(raw, f"{which}.phase", (grid.d,), empty=zeros),
                  amplitude=complex(_array(raw, f"{which}.amplitude", (), complex)))


def parse_config(text: str) -> RunConfig:
    """Parse a config document, fill its defaults and build the run it describes.

    Raises ParseError (with line/column for syntax problems, or naming the
    unknown key), ConfigValidationError naming a key whose value is malformed,
    and the named errors of measure, modulator and symbol validation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    raw = _merge(_DEFAULTS, doc)
    check_params(raw["params"])
    check_params(raw["dimensions"], prefix="dimensions.")
    d, n = int(raw["dimensions"]["d"]), int(raw["dimensions"]["n"])
    grid = _named("grid", Grid, d, raw["grid"]["length"], raw["grid"]["points"])
    A, B = (_array(raw, f"matrices.{key}", (d, n)) for key in "AB")
    mod = Modulator(*(_named(f"modulator.{name}", _modspec, raw, name)
                      for name in ("phi", "psi")))
    weights = _array(raw, "sphere.weights", (-1,))
    mu = SphericalMeasure(_array(raw, "sphere.directions", (len(weights), n)), weights)
    gamma = _array(raw, "drift", (n,), empty=np.zeros(n))
    data = validate(LevyData(nu=_named("measure", _measure, raw, n), mu=mu, gamma=gamma,
                             A=A, B=B, d=d, n=n), mod)
    K = _array(raw, "symbol.K", (n, n), complex, empty=np.eye(n, dtype=complex))
    spec = _named("symbol", SymbolSpec, **{**raw["symbol"], "K": K}, data=data, mod=mod,
                  u=raw["params"]["u_scale"], A=A, B=B, d=d)
    field = _field(raw, "field", grid)
    field_g = field if raw["field_g"]["kind"] == "same" else _field(raw, "field_g", grid)
    return RunConfig(raw, data, mod, spec, grid, field, field_g)


def emit_config(cfg: RunConfig) -> str:
    """Canonical JSON text of the defaults-filled config."""
    return json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n"
