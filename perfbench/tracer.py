"""Per-layer spans recorded from outside the library.

The tracer replaces chosen library functions, in every loaded `levymult`
module that binds them, with wrappers that record a span (name, start,
end, parent) and a few work counts.  Spans stay in memory and are written
out when the run ends.  A span's self time is its duration minus the
durations of its children; spans nest strictly because the library runs
on one thread.  A target that no longer exists is skipped, and the layer
metrics that depend only on missing targets are reported as absent.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(bound, name):
    return bound.arguments[name]


def _count_cpp_paths(tr, bound, result, nested):
    tr.counts["mc.paths"] += _arg(bound, "n_paths")
    tr.counts["mc.jumps"] += int(np.sum(result["njumps"]))


def _count_brownian_paths(tr, bound, result, nested):
    tr.counts["mc.paths"] += _arg(bound, "n_paths")
    if nested:
        tr.counts["mc.richardson_trips"] += 1


def _count_cpp_kernel(tr, bound, result, nested):
    paths = _arg(bound, "offsets").size - 1
    tr.counts["kernels.cpp_mode_updates"] += _arg(bound, "fhat").size * (
        _arg(bound, "times").size + paths)


def _count_brownian_kernel(tr, bound, result, nested):
    dW = _arg(bound, "dW")
    tr.counts["kernels.brownian_mode_steps"] += dW.shape[0] * dW.shape[1] * _arg(bound, "fhat").size


def _count_reduction(tr, bound, result, nested):
    tr.counts["spectral.reduction_points"] += np.size(result)


def _count_exponent(tr, bound, result, nested):
    if nested:
        return
    points = np.atleast_2d(np.asarray(_arg(bound, "zeta" if "zeta" in bound.arguments
                                                else "zeta1"))).shape[0]
    tr.counts["levy.exponent_points"] += points
    atoms = getattr(_arg(bound, "data").nu, "atoms", None)
    if atoms is not None:
        tr.counts["levy.atom_terms"] += points * atoms.shape[0]


def _count_panels(tr, bound, result, nested):
    tr.counts["quadrature.panels"] += np.size(_arg(bound, "edges")) - 1


def _count_approximate(tr, bound, result, nested):
    tr.counts["levy.approximate_atoms"] += result[0].nu.atoms.shape[0]


def _count_symbols(tr, bound, result, nested):
    if not nested:
        tr.counts["symbols.points"] += np.size(getattr(result, "values", result))


def _count_fft(tr, bound, result, nested):
    tr.counts["spectral.probe_fft_calls" if tr.inside("spectral.probe")
              else "spectral.fft_calls"] += 1


def _count_bytes(tr, bound, result, nested):
    if isinstance(result, str):
        tr.counts["gridio.bytes"] += len(result)
    else:
        tr.counts["gridio.bytes"] += os.path.getsize(_arg(bound, "path"))


# (span name, module, attribute, counter); "Class.method" patches the class.
TARGETS = [
    ("mc.sampling", "levymult.mc", "simulate_cpp", None),
    ("mc.sampling", "levymult.mc", "path_stream", None),
    ("kernels.cpp", "levymult.kernels", "cpp_pair_coeffs", _count_cpp_kernel),
    ("kernels.brownian", "levymult.kernels", "brownian_accumulate", _count_brownian_kernel),
    ("spectral.reduction", "levymult.spectral", "values_from_coefficients", _count_reduction),
    ("mc.driver", "levymult.mc", "estimate_pairing", None),
    ("mc.driver", "levymult.mc", "run_cpp_paths", _count_cpp_paths),
    ("mc.driver", "levymult.mc", "brownian_pairing", _count_brownian_paths),
    ("levy.exponent", "levymult.levy", "psi", _count_exponent),
    ("levy.exponent", "levymult.levy", "psi_tilde", _count_exponent),
    ("levy.exponent", "levymult.levy", "cross_form", _count_exponent),
    ("quadrature", "levymult.quadrature", "panel_rule", _count_panels),
    ("quadrature", "levymult.quadrature", "radial_edges", None),
    ("levy.approximate", "levymult.levy", "approximate", _count_approximate),
    ("symbols", "levymult.symbols", "evaluate_grid", _count_symbols),
    ("symbols", "levymult.symbols", "symbol_grid_from_values", _count_symbols),
    ("symbols", "levymult.symbols", "SymbolSpec.__call__", _count_symbols),
    ("symbols", "levymult.symbols", "symbol_q", _count_symbols),
    ("symbols", "levymult.symbols", "symbol_integral", _count_symbols),
    ("symbols", "levymult.symbols", "symbol_limit", _count_symbols),
    ("symbols", "levymult.symbols", "symbol_gaussian", _count_symbols),
    ("symbols", "levymult.symbols", "symbol_gaussian_limit", _count_symbols),
    ("symbols", "levymult.symbols", "symbol_stable", _count_symbols),
    ("symbols", "levymult.symbols", "preset_log_symbol", _count_symbols),
    ("spectral.fft", "levymult.spectral", "transform_forward", _count_fft),
    ("spectral.fft", "levymult.spectral", "transform_inverse", _count_fft),
    ("spectral.probe", "levymult.spectral", "norm_probe", None),
    ("cli", "levymult.cli", "main", None),
    ("config.parse", "levymult.config", "parse_config", None),
    ("gridio.write", "levymult.gridio", "write_symbol_grid", _count_bytes),
    ("gridio.write", "levymult.gridio", "write_field", _count_bytes),
    ("gridio.write", "levymult.gridio", "symbol_grid_csv", _count_bytes),
    ("gridio.write", "levymult.gridio", "field_csv", _count_bytes),
    ("gridio.write", "levymult.gridio", "probe_report_csv", _count_bytes),
]

# Per-layer metrics: name -> (unit, span names or counter it is built from).
LAYER_METRICS = {
    "mc.sampling_s": ("s", ["mc.sampling"]),
    "mc.paths": ("count", ["mc.driver"]),
    "mc.jumps": ("count", ["mc.driver"]),
    "kernels.cpp_s": ("s", ["kernels.cpp"]),
    "kernels.cpp_mode_updates": ("count", ["kernels.cpp"]),
    "kernels.brownian_s": ("s", ["kernels.brownian"]),
    "kernels.brownian_mode_steps": ("count", ["kernels.brownian"]),
    "spectral.reduction_s": ("s", ["spectral.reduction"]),
    "spectral.reduction_points": ("count", ["spectral.reduction"]),
    "mc.driver_s": ("s", ["mc.driver"]),
    "mc.richardson_s": ("s", ["mc.driver"]),
    "mc.richardson_trips": ("count", ["mc.driver"]),
    "levy.exponent_s": ("s", ["levy.exponent"]),
    "levy.exponent_points": ("count", ["levy.exponent"]),
    "levy.atom_terms": ("count", ["levy.exponent"]),
    "quadrature.s": ("s", ["quadrature"]),
    "quadrature.panels": ("count", ["quadrature"]),
    "levy.approximate_s": ("s", ["levy.approximate"]),
    "levy.approximate_atoms": ("count", ["levy.approximate"]),
    "symbols.s": ("s", ["symbols"]),
    "symbols.points": ("count", ["symbols"]),
    "spectral.fft_s": ("s", ["spectral.fft"]),
    "spectral.fft_calls": ("count", ["spectral.fft"]),
    "spectral.probe_fft_s": ("s", ["spectral.fft", "spectral.probe"]),
    "spectral.probe_fft_calls": ("count", ["spectral.fft", "spectral.probe"]),
    "spectral.probe_s": ("s", ["spectral.probe"]),
    "cli.s": ("s", ["cli"]),
    "config.parse_s": ("s", ["config.parse"]),
    "gridio.write_s": ("s", ["gridio.write"]),
    "gridio.bytes": ("bytes", ["gridio.write"]),
}


def _resolve(module, attr):
    """(owner, name, function) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else None


class Tracer:
    """In-memory span recorder with per-layer self times and work counts."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.stack = []        # indices of open spans
        self.stack_keys = []   # target key of each open span
        self.counts = defaultdict(float)
        self.present = set()   # span names with at least one live target
        self.count_errors = set()

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def open(self, name, key=None):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.stack_keys.append(key)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        self.stack_keys.pop()

    def install(self):
        """Wrap every target that exists; returns the names of missing ones."""
        missing = []
        for layer, module, attr, counter in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                missing.append(f"{module}.{attr}")
                continue
            owner, name, fn = found
            wrapper = self._wrap(fn, layer, f"{module}.{attr}", counter)
            if "." in attr:
                setattr(owner, name, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "levymult" or mod_name.startswith("levymult."):
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, key, wrapper)
            self.present.add(layer)
        return missing

    def _wrap(self, fn, layer, key, counter):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = key in tracer.stack_keys
            name = layer
            if key == "levymult.mc.brownian_pairing" and nested:
                name = "mc.richardson"
            elif layer == "spectral.fft" and tracer.inside("spectral.probe"):
                name = "spectral.probe_fft"
            elif layer in ("levy.exponent", "symbols"):
                nested = tracer.inside(layer)
            idx = tracer.open(name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None and sig is not None:
                try:
                    counter(tracer, sig.bind(*args, **kwargs), result, nested)
                except (TypeError, KeyError, AttributeError, IndexError):
                    tracer.count_errors.add(key)
            return result

        return wrapper

    def self_times(self):
        """Self and inclusive time per span name."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        total = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            total[name] += end - start
        return own, total

    def layer_metrics(self, rounds):
        """Per-round means of every per-layer metric, the benchmark's own
        share and the attributed total; None marks an absent layer."""
        own, total = self.self_times()
        values = {
            "mc.sampling_s": own["mc.sampling"],
            "kernels.cpp_s": own["kernels.cpp"],
            "kernels.brownian_s": own["kernels.brownian"],
            "spectral.reduction_s": own["spectral.reduction"],
            "mc.driver_s": own["mc.driver"] + own["mc.richardson"],
            "mc.richardson_s": total["mc.richardson"],
            "levy.exponent_s": own["levy.exponent"],
            "quadrature.s": own["quadrature"],
            "levy.approximate_s": own["levy.approximate"],
            "symbols.s": own["symbols"],
            "spectral.fft_s": own["spectral.fft"],
            "spectral.probe_fft_s": own["spectral.probe_fft"],
            "spectral.probe_s": own["spectral.probe"],
            "cli.s": own["cli"],
            "config.parse_s": own["config.parse"],
            "gridio.write_s": own["gridio.write"],
        }
        out = {}
        for metric, (unit, layers) in LAYER_METRICS.items():
            if not all(layer in self.present for layer in layers):
                out[metric] = (None, unit)
                continue
            raw = values[metric] if metric in values else self.counts[metric]
            out[metric] = (raw / rounds, unit)
        bench = sum(v for k, v in own.items() if k.startswith("bench."))
        return out, bench / rounds, sum(own.values()) / rounds

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], round(a, 9), round(b, 9), p]
                                 for n, a, b, p in self.spans]}, fh)
