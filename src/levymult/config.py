"""Run configuration: a JSON document with strict keys and filled defaults.

Complex scalars are written as two-element [re, im] arrays.  Unknown keys
anywhere in the document are rejected with the offending key named, so
typos cannot silently change a run.  parse(emit(config)) reproduces the
config exactly, and emit() output is canonical (sorted keys), giving
byte-stable run reports.
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
from .spectral import gaussian_bump
from .symbols import SymbolSpec

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
    "modulator": {
        "phi": {"kind": "constant", "value": [1.0, 0.0], "axis": 0, "normal": [],
                "radius": 1.0, "harmonic": 1, "table": []},
        "psi": {"kind": "constant", "value": [1.0, 0.0], "axis": 0, "normal": [],
                "radius": 1.0, "harmonic": 1, "table": []},
    },
    "symbol": {"variant": "q_form", "K": [], "var_scale": 1.0, "alpha": 0.5,
               "preset": "riesz", "j": 0, "k": 1},
    "grid": {"length": 40.0, "points": 1024},
    "field": {"kind": "gaussian", "center": [], "width": 1.0, "phase": [],
              "amplitude": [1.0, 0.0]},
    "field_g": {"kind": "same", "center": [], "width": 1.0, "phase": [],
                "amplitude": [1.0, 0.0]},
    "params": {
        "p": [1.25, 1.5, 2.0, 3.0, 4.0],
        "trials": 500,
        "paths": 200000,
        "steps": 2000,
        "u_scale": 1.0,
        "seed": 12345,
        "var_scale": 0.5,
        "ascent_steps": 200,
        "block_size": 0,
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


def _as_complex(v):
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ConfigValidationError(f"complex values are [re, im], got {v!r}")
        return complex(v[0], v[1])
    return complex(v)


def _complex_list(vals):
    return [_as_complex(v) for v in vals]


def _number_in(v, low, whole=False):
    """A finite number >= low (an integral one if whole; JSON may write 500.0)."""
    return isinstance(v, (int, float)) and low <= v < np.inf and (not whole or v == int(v))


# (key, test, what the value must be) for the checked scalar params
_PARAM_RULES = (
    ("p", lambda v: isinstance(v, list) and v and all(_number_in(x, 1) and x > 1 for x in v),
     "a non-empty list of values in (1, inf)"),
    ("trials", lambda v: _number_in(v, 1, whole=True), "an integer >= 1"),
    ("ascent_steps", lambda v: _number_in(v, 0, whole=True), "an integer >= 0"),
    ("paths", lambda v: _number_in(v, 2, whole=True), "an integer >= 2"),
    ("steps", lambda v: _number_in(v, 2, whole=True) and v % 2 == 0, "an even integer >= 2"),
    ("block_size", lambda v: _number_in(v, 0, whole=True), "an integer >= 0"),
    ("seed", lambda v: _number_in(v, 0, whole=True) and v < 2**64, "an integer in [0, 2**64)"),
)


def check_params(params: dict, prefix: str = "params."):
    """Raise ConfigValidationError naming the first given param that breaks its rule."""
    for key, ok, need in _PARAM_RULES:
        if key in params and not ok(params[key]):
            raise ConfigValidationError(f"{prefix}{key} = {params[key]!r} is not {need}")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run description; `raw` is the defaults-filled document."""

    raw: dict

    def __post_init__(self):
        check_params(self.raw["params"])

    # -- dimensions and matrices ------------------------------------------
    @property
    def d(self) -> int:
        return int(self.raw["dimensions"]["d"])

    @property
    def n(self) -> int:
        return int(self.raw["dimensions"]["n"])

    @property
    def A(self) -> np.ndarray:
        return np.asarray(self.raw["matrices"]["A"], dtype=float).reshape(self.d, self.n)

    @property
    def B(self) -> np.ndarray:
        return np.asarray(self.raw["matrices"]["B"], dtype=float).reshape(self.d, self.n)

    # -- domain objects ----------------------------------------------------
    def build_measure(self):
        m = self.raw["measure"]
        variant = m["variant"]
        if variant == "atoms":
            return AtomsMeasure(np.asarray(m["atoms"], dtype=float).reshape(-1, self.n),
                                np.asarray(m["weights"], dtype=float))
        if variant == "radial_product":
            return RadialProductMeasure(
                alpha=float(m["alpha"]),
                coeff=float(m["coeff"]),
                directions=np.asarray(m["directions"], dtype=float).reshape(-1, self.n),
                dir_weights=np.asarray(m["dir_weights"], dtype=float),
            )
        if variant == "stable":
            return StableMeasure(alpha=float(m["alpha"]), n=self.n)
        raise ConfigValidationError(f"unknown measure variant {variant!r}")

    def build_sphere(self) -> SphericalMeasure:
        s = self.raw["sphere"]
        if not s["weights"]:
            return SphericalMeasure.empty(self.n)
        return SphericalMeasure(np.asarray(s["directions"], dtype=float).reshape(-1, self.n),
                                np.asarray(s["weights"], dtype=float))

    def build_data(self) -> LevyData:
        gamma = np.asarray(self.raw["drift"], dtype=float) if self.raw["drift"] \
            else np.zeros(self.n)
        data = LevyData(nu=self.build_measure(), mu=self.build_sphere(), gamma=gamma,
                        A=self.A, B=self.B, d=self.d, n=self.n)
        return validate(data, self.build_modulator())

    def _modspec(self, block) -> ModSpec:
        kind = block["kind"]
        if kind == "table":
            return ModSpec(kind="table", table=np.asarray(_complex_list(block["table"])))
        return ModSpec(
            kind=kind,
            value=_as_complex(block["value"]),
            axis=int(block["axis"]),
            normal=tuple(float(v) for v in block["normal"]),
            radius=float(block["radius"]),
            harmonic=int(block["harmonic"]),
        )

    def build_modulator(self) -> Modulator:
        mod = self.raw["modulator"]
        return Modulator(phi=self._modspec(mod["phi"]), psi=self._modspec(mod["psi"]))

    def build_symbol_spec(self) -> SymbolSpec:
        s = self.raw["symbol"]
        variant = s["variant"]
        if variant in ("q_form", "integral_form", "limit_form"):
            return SymbolSpec(variant=variant, data=self.build_data(),
                              mod=self.build_modulator(),
                              u=float(self.raw["params"]["u_scale"]))
        if variant in ("gaussian", "gaussian_limit"):
            K = np.asarray([_complex_list(row) for row in s["K"]], dtype=complex) \
                if s["K"] else np.eye(self.n, dtype=complex)
            return SymbolSpec(variant=variant, A=self.A, B=self.B,
                              K=K.reshape(self.n, self.n),
                              var_scale=float(s["var_scale"]))
        if variant == "stable":
            return SymbolSpec(variant="stable", alpha=float(s["alpha"]))
        if variant == "preset":
            return SymbolSpec(variant="preset", preset=s["preset"], j=int(s["j"]),
                              k=int(s["k"]), d=self.d)
        raise ConfigValidationError(f"unknown symbol variant {variant!r}")

    def build_field(self, which: str = "field"):
        blk = self.raw[which]
        if which == "field_g" and blk["kind"] == "same":
            blk = self.raw["field"]
        if blk["kind"] != "gaussian":
            raise ConfigValidationError(f"unknown field kind {blk['kind']!r}")
        d = self.d
        g = self.raw["grid"]
        center = np.asarray(blk["center"], dtype=float) if blk["center"] else np.zeros(d)
        phase = np.asarray(blk["phase"], dtype=float) if blk["phase"] else np.zeros(d)
        return gaussian_bump(float(g["length"]), int(g["points"]), d,
                             center=center, width=float(blk["width"]),
                             phase_freq=phase, amplitude=_as_complex(blk["amplitude"]))

    # -- scalar parameters ---------------------------------------------------
    @property
    def params(self) -> dict:
        return self.raw["params"]

    @property
    def grid_length(self) -> float:
        return float(self.raw["grid"]["length"])

    @property
    def grid_points(self) -> int:
        return int(self.raw["grid"]["points"])

    @property
    def output_dir(self) -> str:
        return self.raw["output_dir"]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; fills defaults.

    Raises ParseError (with line/column for syntax problems, or naming the
    unknown key) and lets measure/modulator validation errors propagate.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    raw = _merge(_DEFAULTS, doc)
    cfg = RunConfig(raw=raw)
    cfg.build_data()          # validates measure + modulator together
    cfg.build_symbol_spec()
    try:
        Grid(cfg.d, cfg.raw["grid"]["length"], cfg.raw["grid"]["points"])
    except ValueError as exc:
        raise ConfigValidationError(f"grid: {exc}") from None
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Canonical JSON text of the defaults-filled config."""
    return json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n"
