"""Serialization round trips, config parsing, and the CLI surface."""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levymult
from levymult import SampledField, SymbolSpec, evaluate_grid, gaussian_bump
from levymult.config import emit_config, parse_config
from levymult.errors import (
    ConfigValidationError,
    MeasureValidationError,
    ModulatorExceedsOne,
    ParseError,
)
from levymult.gridio import (
    field_csv,
    read_field,
    read_symbol_grid,
    symbol_grid_csv,
    write_field,
    write_symbol_grid,
)


# ---------------------------------------------------------------------------
# binary + CSV formats
# ---------------------------------------------------------------------------


def test_symbol_grid_binary_round_trip(tmp_path):
    grid = evaluate_grid(SymbolSpec(variant="stable", alpha=0.7), L=20.0, N=128)
    path = tmp_path / "g.lmgrid"
    write_symbol_grid(path, grid)
    back = read_symbol_grid(path)
    assert back.d == grid.d and back.N == grid.N
    assert np.allclose(back.L, grid.L)
    assert np.array_equal(back.values, grid.values)
    assert path.read_bytes()[:8] == b"LMGRID1\x00"


def test_field_binary_round_trip(tmp_path):
    f = gaussian_bump(20.0, 64, 2, center=[0.5, -0.2], width=0.8,
                      phase_freq=[0.3, 0.0])
    path = tmp_path / "f.lmfield"
    write_field(path, f)
    back = read_field(path)
    assert np.array_equal(back.values, f.values)
    assert path.read_bytes()[:8] == b"LMFIELD1"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ParseError):
        read_field(path)


def _write_header(path, magic, d, N, L, payload_floats):
    path.write_bytes(magic + struct.pack("<Q", d) + np.asarray(N, dtype="<u8").tobytes()
                     + np.asarray(L, dtype="<f8").tobytes()
                     + np.zeros(payload_floats, dtype="<f8").tobytes())


@pytest.mark.parametrize("N,L,field", [(3, 10.0, "N"), (8, -10.0, "L"), (8, 0.0, "L"),
                                       (0, 10.0, "N")])
def test_read_symbol_grid_rejects_bad_header(tmp_path, N, L, field):
    path = tmp_path / "bad.lmgrid"
    _write_header(path, b"LMGRID1\x00", 1, [N], [L], 2 * N)
    with pytest.raises(ParseError, match=f"{field} ="):
        read_symbol_grid(path)


@pytest.mark.parametrize("N,L,field", [(8, np.nan, "L"), (8, np.inf, "L"), (6, 10.0, "N")])
def test_read_field_rejects_bad_header(tmp_path, N, L, field):
    path = tmp_path / "bad.lmfield"
    _write_header(path, b"LMFIELD1", 1, [N], [L], 2 * N)
    with pytest.raises(ParseError, match=f"{field} ="):
        read_field(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("magic,read", [(b"LMGRID1\x00", read_symbol_grid),
                                        (b"LMFIELD1", read_field)])
def test_readers_reject_non_finite_payload(tmp_path, magic, read, bad):
    path = tmp_path / "bad.bin"
    _write_header(path, magic, 1, [8], [10.0], 0)
    payload = np.zeros(16)
    payload[5] = bad
    path.write_bytes(path.read_bytes() + payload.astype("<f8").tobytes())
    with pytest.raises(ParseError, match="non-finite"):
        read(path)


@pytest.mark.parametrize("read,magic", [(read_symbol_grid, b"LMGRID1\x00"),
                                        (read_field, b"LMFIELD1")])
def test_readers_reject_header_cut_inside_N_and_L(tmp_path, read, magic):
    # d = 3 needs 48 header bytes of N and L; the file stops after 12
    path = tmp_path / "cut.bin"
    path.write_bytes(magic + struct.pack("<Q", 3) + b"\x08" * 12)
    with pytest.raises(ParseError, match="cut short"):
        read(path)


@pytest.mark.parametrize("read,magic", [(read_symbol_grid, b"LMGRID1\x00"),
                                        (read_field, b"LMFIELD1")])
def test_readers_reject_header_cut_inside_d(tmp_path, read, magic):
    path = tmp_path / "cut.bin"
    path.write_bytes(magic + b"\x01\x00\x00")
    with pytest.raises(ParseError, match="cut short"):
        read(path)


@pytest.mark.parametrize("read,magic", [(read_symbol_grid, b"LMGRID1\x00"),
                                        (read_field, b"LMFIELD1")])
def test_readers_reject_more_points_than_int64_indexes(tmp_path, read, magic):
    path = tmp_path / "huge.bin"
    _write_header(path, magic, 2, [2**32, 2**32], [40.0, 40.0], 0)
    with pytest.raises(ParseError, match="N ="):
        read(path)


def test_symbol_csv_layout():
    grid = evaluate_grid(SymbolSpec(variant="stable", alpha=0.5), L=20.0, N=8)
    text = symbol_grid_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "xi_1,re_m,im_m"
    assert len(lines) == 9
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(-4 * 2 * np.pi / 20.0)  # ascending frequencies


def test_field_csv_layout():
    f = SampledField(d=1, L=(4.0,), N=(4,), values=np.arange(4) + 1j)
    lines = field_csv(f).strip().split("\n")
    assert lines[0] == "x_1,re_f,im_f"
    assert [float(v) for v in lines[1].split(",")] == [-2.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

STABLE_CONFIG = """
{
  "dimensions": {"d": 1, "n": 1},
  "matrices": {"A": [[-1.0]], "B": [[1.0]]},
  "measure": {"variant": "stable", "alpha": 0.5},
  "modulator": {"phi": {"kind": "sign"}},
  "symbol": {"variant": "stable", "alpha": 0.5},
  "params": {"seed": 7, "paths": 500}
}
"""


def test_parse_minimal_stable_config():
    cfg = parse_config(STABLE_CONFIG)
    assert cfg.d == cfg.n == 1
    assert cfg.A[0, 0] == -1.0 and cfg.B[0, 0] == 1.0
    data = cfg.build_data()
    assert type(data.nu).__name__ == "StableMeasure"


def test_parse_round_trip():
    cfg = parse_config(STABLE_CONFIG)
    again = parse_config(emit_config(cfg))
    assert again.raw == cfg.raw
    assert emit_config(again) == emit_config(cfg)


def test_unknown_key_named():
    with pytest.raises(ParseError, match="fooo"):
        parse_config('{"fooo": 1}')


def test_nested_unknown_key_named():
    # params.eps and params.zeta_max are gone, as no command read them, and so
    # are measure.r_max and measure.quad_order, as the radial measure has no cut
    for block, key in (("params", "warp"), ("params", "eps"), ("params", "zeta_max"),
                       ("measure", "r_max"), ("measure", "quad_order")):
        with pytest.raises(ParseError, match=re.escape(f"unknown key '{key}' at {block}.")):
            parse_config(f'{{"{block}": {{"{key}": 9}}}}')


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_config('{"dimensions": {"d": 1,}}')
    assert err.value.line is not None


def test_config_oversized_table_rejected():
    bad = json.loads(STABLE_CONFIG)
    bad["measure"] = {"variant": "atoms", "atoms": [[1.0]], "weights": [1.0]}
    bad["modulator"] = {"phi": {"kind": "table", "table": [[1.5, 0.0]]}}
    with pytest.raises(ModulatorExceedsOne):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("grid", [{"length": 0.0}, {"length": -40.0},
                                  {"length": 40.0, "points": 1000},
                                  {"length": 40.0, "points": 4.5}])
def test_config_bad_grid_rejected(grid):
    bad = json.loads(STABLE_CONFIG)
    bad["grid"] = grid
    with pytest.raises(ConfigValidationError, match="grid"):
        parse_config(json.dumps(bad))


def test_config_rejects_more_points_than_int64_indexes():
    doc = {"dimensions": {"d": 2, "n": 2}, "matrices": {"A": np.eye(2).tolist(),
                                                      "B": np.eye(2).tolist()},
           "measure": {"variant": "atoms", "atoms": [[1.0, 0.0]], "weights": [1.0]},
           "symbol": {"variant": "q_form"}, "grid": {"length": 40.0, "points": 2**32}}
    with pytest.raises(ConfigValidationError, match="grid.*N ="):
        parse_config(json.dumps(doc))


def test_config_invalid_measure_rejected():
    bad = json.loads(STABLE_CONFIG)
    bad["measure"] = {"variant": "atoms", "atoms": [[0.0]], "weights": [1.0]}
    with pytest.raises(MeasureValidationError):
        parse_config(json.dumps(bad))


def test_config_negative_radial_coeff_named():
    bad = json.loads(STABLE_CONFIG)
    bad["measure"] = {"variant": "radial_product", "alpha": 0.5, "coeff": -1.0,
                      "directions": [[1.0], [-1.0]], "dir_weights": [1.0, 1.0]}
    with pytest.raises(MeasureValidationError, match="coeff"):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("key, value", [
    ("p", [1.0]), ("p", [2.0, 0.5]), ("p", [float("nan")]), ("p", []), ("p", 2.0),
    ("trials", 0), ("trials", 2.5), ("ascent_steps", -1),
    ("paths", 0), ("paths", 1), ("paths", 2.5), ("steps", 1), ("steps", 3), ("steps", 2.5),
    ("block_size", -3), ("block_size", 1.5), ("seed", -1), ("seed", 1.5), ("seed", 2**64),
])
def test_config_bad_probe_params_named(key, value):
    bad = json.loads(STABLE_CONFIG)
    bad["params"][key] = value
    with pytest.raises(ConfigValidationError, match=f"params.{key} = "):
        parse_config(json.dumps(bad))


def test_cli_probe_p_one_is_a_named_config_error(tmp_path):
    """p = 1 used to end `levymult probe` in a ZeroDivisionError traceback."""
    cfg = json.loads(STABLE_CONFIG)
    cfg["params"].update({"p": [2.0, 1.0], "trials": 4, "ascent_steps": 2})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _run_cli(["probe", "--config", str(path), "--out", "pr"], tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last["status"] == "error" and last["code"] == "ConfigValidationError"
    assert "params.p" in last["message"] and "Traceback" not in res.stderr


def test_cli_paths_override_is_checked_like_the_config(tmp_path, stable_cfg_file):
    res = _run_cli(["mc", "--config", str(stable_cfg_file), "--paths", "1", "--out", "mc"],
                   tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last["code"] == "ConfigValidationError"
    assert last["message"] == "--paths = 1 is not an integer >= 2"


def test_cli_seed_override_is_checked_like_the_config(tmp_path, stable_cfg_file):
    # a negative seed used to end `levymult mc` in an OverflowError traceback, and
    # a seed or path count that argparse could not read as an int in its usage text
    for flag, value, message in (
            ("--seed", "-1", "--seed = -1 is not an integer in [0, 2**64)"),
            ("--seed", "1.5", "--seed = 1.5 is not an integer in [0, 2**64)"),
            ("--paths", "abc", "--paths = 'abc' is not an integer >= 2")):
        res = _run_cli(["mc", "--config", str(stable_cfg_file), flag, value, "--out", "mc"],
                       tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        last = json.loads(res.stdout.strip().split("\n")[-1])
        assert last["code"] == "ConfigValidationError" and "Traceback" not in res.stderr
        assert last["message"] == message


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


# The directory holding the package this test process imported: the source
# tree's `src/` or an installed site-packages.  The child puts it first on
# its path, so it runs the same package from inside `tmp_path`, where a
# relative PYTHONPATH such as `src` no longer resolves.
_PACKAGE_ROOT = str(Path(levymult.__file__).resolve().parent.parent)


def _run_cli(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "levymult.cli", *args],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )


@pytest.fixture
def stable_cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(STABLE_CONFIG)
    return path


def test_cli_symbol_writes_artifacts(tmp_path, stable_cfg_file):
    res = _run_cli(["symbol", "--config", str(stable_cfg_file), "--out", "run1"],
                   tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    out = tmp_path / "run1"
    assert (out / "symbol.csv").exists()
    assert (out / "symbol.lmgrid").exists()
    assert (out / "config.echo.json").exists()
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last["status"] == "ok"
    # every |m| entry in the CSV stays below 1
    rows = (out / "symbol.csv").read_text().strip().split("\n")[1:]
    mags = [abs(complex(float(r.split(",")[1]), float(r.split(",")[2])))
            for r in rows]
    assert max(mags) < 1.0


def test_cli_symbol_deterministic_output(tmp_path, stable_cfg_file):
    for out in ("a", "b"):
        res = _run_cli(["symbol", "--config", str(stable_cfg_file), "--out", out],
                       tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
    assert (tmp_path / "a/symbol.csv").read_bytes() == \
        (tmp_path / "b/symbol.csv").read_bytes()


def test_cli_probe_p2_passes(tmp_path):
    cfg = json.loads(STABLE_CONFIG)
    cfg["grid"] = {"length": 20.0, "points": 256}
    cfg["params"].update({"p": [2.0], "trials": 40, "ascent_steps": 20})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _run_cli(["probe", "--config", str(path), "--out", "pr"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    text = (tmp_path / "pr/probe.csv").read_text()
    assert text.startswith("p,bound,best_ratio,trials,seed,pass")
    assert ",true" in text


def test_cli_mc_small_run(tmp_path):
    cfg = json.loads(STABLE_CONFIG)
    cfg["matrices"] = {"A": [[1.0]], "B": [[1.0]]}
    cfg["measure"] = {"variant": "atoms", "atoms": [[1.0]], "weights": [1.0]}
    cfg["modulator"] = {"phi": {"kind": "constant", "value": [1.0, 0.0]}}
    cfg["symbol"] = {"variant": "q_form"}
    cfg["grid"] = {"length": 40.0, "points": 512}
    cfg["field"] = {"kind": "gaussian", "center": [0.5], "width": 0.9}
    cfg["params"].update({"paths": 6000, "seed": 5})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _run_cli(["mc", "--config", str(path), "--out", "mc"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last["status"] == "ok"
    assert (tmp_path / "mc/mc_report.csv").exists()


def test_cli_error_reports_reason_on_last_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"fooo": 1}')
    res = _run_cli(["symbol", "--config", str(path)], tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last["status"] == "error"
    assert "fooo" in last["message"]


def test_cli_sign_axis_outside_the_jump_space_is_a_named_error(tmp_path):
    cfg = json.loads(STABLE_CONFIG)
    cfg["modulator"] = {"phi": {"kind": "sign", "axis": 3}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _run_cli(["symbol", "--config", str(path), "--out", "run"], tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last["status"] == "error"
    assert last["code"] == "ModulatorUndefinedOnSupport"
    assert "axis" in last["message"]


def test_cli_nan_in_the_config_is_a_named_error(tmp_path):
    # Python's json reads NaN; validation names the field before any symbol is formed
    cfg = json.loads(STABLE_CONFIG)
    cfg["measure"] = {"variant": "atoms", "atoms": [[1.0], [float("nan")]],
                      "weights": [0.5, 0.5]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _run_cli(["symbol", "--config", str(path), "--out", "run"], tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last["status"] == "error"
    assert last["code"] == "MeasureValidationError"
    assert "atoms" in last["message"]


def test_cli_mc_names_a_gaussian_part_it_cannot_sample(tmp_path):
    cfg = json.loads(STABLE_CONFIG)
    cfg["matrices"] = {"A": [[1.0]], "B": [[-1.0]]}
    cfg["measure"] = {"variant": "atoms", "atoms": [[1.0], [-2.0]], "weights": [0.7, 0.3]}
    cfg["sphere"] = {"directions": [[1.0]], "weights": [0.6]}
    cfg["modulator"] = {"phi": {"kind": "table", "table": [[0.5, 0.0], [0.0, -0.8]]},
                        "psi": {"kind": "table", "table": [[-0.9, 0.0]]}}
    cfg["symbol"] = {"variant": "q_form"}
    cfg["grid"] = {"length": 40.0, "points": 256}
    cfg["params"].update({"paths": 100, "seed": 5})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _run_cli(["mc", "--config", str(path), "--out", "mc"], tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last["status"] == "error"
    assert last["code"] == "MeasureValidationError"
    assert "sphere measure" in last["message"]


def test_cli_flag_overrides(tmp_path, stable_cfg_file):
    res = _run_cli(["symbol", "--config", str(stable_cfg_file), "--seed", "99",
                    "--out", "ov"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    echo = json.loads((tmp_path / "ov/config.echo.json").read_text())
    assert echo["params"]["seed"] == 7   # echo carries the file's config verbatim


def test_cli_gaussian_mc_small_run(tmp_path):
    cfg = json.loads(STABLE_CONFIG)
    cfg["matrices"] = {"A": [[1.0]], "B": [[1.0]]}
    cfg["measure"] = {"variant": "atoms", "atoms": [[1.0]], "weights": [1.0]}
    cfg["modulator"] = {"phi": {"kind": "constant", "value": [1.0, 0.0]}}
    cfg["symbol"] = {"variant": "gaussian", "K": [[[1.0, 0.0]]]}
    cfg["grid"] = {"length": 40.0, "points": 512}
    cfg["field"] = {"kind": "gaussian", "center": [0.4], "width": 0.9}
    cfg["params"].update({"paths": 600, "steps": 240, "seed": 3, "var_scale": 0.5})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _run_cli(["gaussian-mc", "--config", str(path), "--out", "gmc"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    rows = (tmp_path / "gmc/gaussian_mc_report.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == \
        ["quantity", "mc_endpoint", "mc_covariation", "spectral", "step_bias"]
    assert all(np.isfinite(float(v)) for v in rows[-1].split(",")[1:])


def test_cli_pair_and_apply(tmp_path, stable_cfg_file):
    res = _run_cli(["apply", "--config", str(stable_cfg_file), "--out", "ap"],
                   tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert (tmp_path / "ap/applied.lmfield").exists()
    res = _run_cli(["pair", "--config", str(stable_cfg_file), "--out", "pr"],
                   tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    text = (tmp_path / "pr/pairing.csv").read_text()
    assert text.startswith("route,re,im")


def test_selftest_suite_all_green(tmp_path, stable_cfg_file):
    from levymult.checks import CRITERIA
    res = _run_cli(["selftest", "--config", str(stable_cfg_file), "--out", "st"],
                   tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    lines = (tmp_path / "st/selftest.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in lines] == \
        [f"[PASS] criterion {k}" for k in range(1, len(CRITERIA) + 1)]
    last = json.loads(res.stdout.strip().split("\n")[-1])
    assert last == {"status": "ok", "command": "selftest", "checks": 10}
