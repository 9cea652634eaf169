"""Command-line surface: one config file per run, scalar flag overrides.

    levymult <command> --config <path> [--seed N] [--paths N] [--out DIR]

Commands (the COMMANDS table) read the run that parse_config built, so a
malformed config fails every command alike.  Every run echoes its
defaults-filled config into the output directory, writes CSV (and binary,
where applicable) artifacts, and exits nonzero on any failure with a
machine-readable JSON reason on the last line.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checks import CRITERIA
from .config import check_params, emit_config, parse_config
from .errors import LevyMultError
from .gridio import (
    field_csv,
    probe_report_csv,
    symbol_grid_csv,
    write_field,
    write_symbol_grid,
)
from .mc import (
    brownian_pairing,
    estimate_pairing,
    gaussian_spectral_value,
    spectral_pairing_value,
    within_sigmas,
)
from .spectral import apply_multiplier, norm_probe, pairing
from .symbols import evaluate_grid


def _grid(cfg):
    return evaluate_grid(cfg.spec, L=cfg.grid.L, N=cfg.grid.N)


def cmd_symbol(cfg, out, seed, paths):
    grid = _grid(cfg)
    (out / "symbol.csv").write_text(symbol_grid_csv(grid))
    write_symbol_grid(out / "symbol.lmgrid", grid)
    print(f"max |m| = {grid.max_abs:.12g} at xi = {grid.argmax_xi}")
    return grid.max_abs <= 1.0 + 1e-9, {"max_abs": grid.max_abs}


def cmd_apply(cfg, out, seed, paths):
    mf = apply_multiplier(_grid(cfg), cfg.field)
    (out / "applied.csv").write_text(field_csv(mf))
    write_field(out / "applied.lmfield", mf)
    print(f"wrote applied field, sup |Mf| = {np.abs(mf.values).max():.12g}")
    return True, {}


def cmd_pair(cfg, out, seed, paths):
    res = pairing(_grid(cfg), cfg.field, cfg.field_g)
    rows = ["route,re,im",
            f"spatial,{res.spatial.real:.17g},{res.spatial.imag:.17g}",
            f"spectral,{res.spectral.real:.17g},{res.spectral.imag:.17g}"]
    (out / "pairing.csv").write_text("\n".join(rows) + "\n")
    print(f"pairing spatial  = {res.spatial}")
    print(f"pairing spectral = {res.spectral}")
    return True, {"spatial": [res.spatial.real, res.spatial.imag]}


def cmd_probe(cfg, out, seed, paths):
    grid = _grid(cfg)
    reports = norm_probe(grid, cfg.params["p"], trials=int(cfg.params["trials"]),
                         seed=seed, ascent_steps=int(cfg.params["ascent_steps"]))
    ok = True
    for p, rep in zip(cfg.params["p"], reports):
        ok &= rep.passed
        print(f"[{'PASS' if rep.passed else 'FAIL'}] p={p}: best ratio "
              f"{rep.best_ratio:.6f} vs bound {rep.bound:.6f}")
    (out / "probe.csv").write_text(probe_report_csv(reports))
    return ok, {"worst": max(r.best_ratio / r.bound for r in reports)}


def _mc_report_csv(est, ref, *extra):
    """quantity,re,im,se_re,se_im rows: both MC routes, the spectral reference
    and any extra (quantity, value, se) rows."""
    rows = [("mc_endpoint", est.estimate, est.stderr),
            ("mc_covariation", est.cov_estimate, est.cov_stderr), ("spectral", ref, 0j),
            *extra]
    return "quantity,re,im,se_re,se_im\n" + "".join(
        f"{q},{v.real:.17g},{v.imag:.17g},{se.real:.17g},{se.imag:.17g}\n" for q, v, se in rows)


def cmd_mc(cfg, out, seed, paths):
    f, g = cfg.field, cfg.field_g
    est = estimate_pairing(f, g, cfg.data, cfg.mod, paths, seed)
    ref = spectral_pairing_value(f, g, cfg.data, cfg.mod)
    ok_spec = est.agrees_with(ref)
    ok_routes = est.routes_agree()
    (out / "mc_report.csv").write_text(_mc_report_csv(est, ref))
    print(f"MC endpoint    = {est.estimate} +- {est.stderr}")
    print(f"MC covariation = {est.cov_estimate} +- {est.cov_stderr}")
    print(f"spectral       = {ref}")
    print(f"[{'PASS' if ok_spec else 'FAIL'}] MC vs spectral within 3 standard errors")
    print(f"[{'PASS' if ok_routes else 'FAIL'}] endpoint vs covariation routes agree")
    return ok_spec and ok_routes, {"mc": [est.estimate.real, est.estimate.imag],
                                   "spectral": [ref.real, ref.imag]}


def cmd_gaussian_mc(cfg, out, seed, paths):
    f, g, spec = cfg.field, cfg.field_g, cfg.spec
    if spec.variant not in ("gaussian", "gaussian_limit"):
        raise LevyMultError("gaussian-mc needs a gaussian symbol variant in the config")
    var_scale = float(cfg.params["var_scale"])
    est = brownian_pairing(f, g, spec.A, spec.B, spec.K, paths,
                           int(cfg.params["steps"]), seed, var_scale=var_scale)
    ref = gaussian_spectral_value(f, g, spec.A, spec.B, spec.K, var_scale=var_scale)
    ok = within_sigmas(est.estimate, est.stderr, ref)
    (out / "gaussian_mc_report.csv").write_text(
        _mc_report_csv(est, ref, ("step_bias", est.step_bias, est.step_bias_se)))
    print(f"MC endpoint = {est.estimate} +- {est.stderr}  (steps={est.steps})")
    print(f"step bias   = {est.step_bias} +- {est.step_bias_se}  (vs {est.steps // 2} steps)")
    print(f"spectral    = {ref}")
    print(f"[{'PASS' if ok else 'FAIL'}] Brownian MC vs spectral within 3 standard errors")
    return ok, {"mc": [est.estimate.real, est.estimate.imag]}


# path counts, probe trials and ascent steps of the criteria are divided by this
SELFTEST_DIVISOR = 50


def cmd_selftest(cfg, out, seed, paths):
    records = []
    for criterion in CRITERIA:
        records.append(criterion(SELFTEST_DIVISOR))
        print(records[-1].line, flush=True)
    (out / "selftest.txt").write_text("".join(r.line + "\n" for r in records))
    return all(r.passed for r in records), {"checks": len(records)}


COMMANDS = {"symbol": cmd_symbol, "apply": cmd_apply, "pair": cmd_pair, "probe": cmd_probe,
            "mc": cmd_mc, "gaussian-mc": cmd_gaussian_mc, "selftest": cmd_selftest}


def _flag_number(text: str):
    """An override flag's text as the int or float it spells, else the text
    itself, so that check_params names a bad value as it names a config's."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="levymult",
        description="Non-symmetric multiplier symbols, spectral application, "
                    "and Monte-Carlo verification.")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=_flag_number, default=None, help="override params.seed")
    parser.add_argument("--paths", type=_flag_number, default=None,
                        help="override params.paths")
    parser.add_argument("--out", default=None, help="override output_dir")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
        check_params({key: value for key, value in (("paths", args.paths), ("seed", args.seed))
                      if value is not None}, prefix="--")
        out = Path(args.out or cfg.raw["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.echo.json").write_text(emit_config(cfg))
        seed = int(args.seed if args.seed is not None else cfg.params["seed"])
        paths = int(args.paths if args.paths is not None else cfg.params["paths"])
        ok, info = COMMANDS[args.command](cfg, out, seed, paths)
    except LevyMultError as exc:
        print(json.dumps({"status": "error", "code": type(exc).__name__,
                          "message": str(exc)}))
        return 2
    except OSError as exc:
        print(json.dumps({"status": "error", "code": "OSError", "message": str(exc)}))
        return 2

    print(json.dumps({"status": "ok" if ok else "fail", "command": args.command,
                      **info}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
