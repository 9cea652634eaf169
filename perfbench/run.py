"""Benchmark entry point: runs workloads, prints every metric, writes a record.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a fresh
child process (`workloads.py`), one at a time, with single-threaded BLAS
and the checkout's `src/` first on PYTHONPATH.  Set-up time is the median
wall time of SETUP_REPEATS extra children that only import the library,
read the configs and build the models.  The last line of standard output
is one JSON object: for a single workload {"correct", "attempted",
"failed", "metrics"}; for `all`, one such object per workload.  A JSON
record of the run is written to .perfbench/record-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cpp-pairing", "brownian-pairing", "symbol-probe")
SETUP_REPEATS = 5
DEADLINE = 170.0          # seconds for one workload, set-up included


def child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, timeout):
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)


def src_line_counts():
    counts = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path) as fh:
            counts[str(path.relative_to(ROOT))] = sum(1 for _ in fh)
    return counts


def run_workload(name, seed, seconds, trace):
    """Result object for one workload, or None when a child failed."""
    start = time.perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = run_child(["--workload", name, "--seed", str(seed), "--setup-only"], DEADLINE)
        setups.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(f"{name}: set-up exited {proc.returncode}", file=sys.stderr)
            return None
    left = DEADLINE - (time.perf_counter() - start)
    proc = run_child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)], left)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: run exited {proc.returncode}", file=sys.stderr)
        return None
    child = json.loads(lines[-1])
    if trace:
        metrics = child["layers"]
    else:
        metrics = {
            "wall_s": {"value": child["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": child["wrong"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "result": result, "setup_samples_s": setups, "child": child,
              "src_lines": src_line_counts()}
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"record-{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def show(name, result, record):
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed, "
          f"correct {str(result['correct']).lower()}")
    for op, tally in sorted(record["child"]["ops"].items()):
        print(f"   {op:34s} ok {tally['ok']:3d} failed {tally['failed']:3d} "
              f"wrong {tally['wrong']:3d}  {tally['detail']}")
    for metric, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {metric:30s} {value:>14s} {m['unit']}")
    if record["child"].get("missing_targets"):
        print(f"   absent wrap targets: {', '.join(record['child']['missing_targets'])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            outcome = run_workload(name, args.seed, args.seconds, args.trace)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out", file=sys.stderr)
            return 1
        if outcome is None:
            return 1
        results[name] = outcome[0]
        show(name, *outcome)
    lines = src_line_counts()
    print(f"src/ lines (reference, not gated): {sum(lines.values())} in {len(lines)} modules")
    for path, count in lines.items():
        print(f"   {path:34s} {count:5d}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
