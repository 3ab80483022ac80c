"""statemetric benchmark.

Run one workload:

    python3 perfbench/run.py --workload grid_small_d --seed 1 --seconds 20 --trace 0

The load generator is a closed loop with one client: a single process issues
one op after another, in-process through ``statemetric.cli.main`` or
``geometry.classify``, and checks each output outside the timed region.
Workloads run in a child process whose environment has the thread variables
(STATEMETRIC_THREADS, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS) removed, so the
program runs at its defaults.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it list
every metric with its unit and the environment.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer numbers of a traced replay.
``--out FILE`` appends the full record as one JSON line.

Compare two sets of records:

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

prints, per workload and metric, each side's median and quartiles and a
verdict (improved, unchanged, worse, unresolved) judged against the bounds
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("STATEMETRIC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_SAMPLES = 3     # set-ups per run; setup_s is their median
TIME_LIMIT = 170.0    # wall seconds for the whole run

P90_MIN_OPS = 100

# metric -> (unit, better, bound); the last output line carries the metrics
# BENCHMARK.json lists, the record also the ones below, which are reported
# only on the workloads where they have a meaning
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RULES = {m["name"]: (m["unit"], m["better"], m.get("bound"))
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}
RULES.update({
    "op_p90_ms": ("ms", "lower", None),
    "nodes_per_s": ("1/s", "higher", None),
    "error_rate": ("ratio", "lower", None),
    "curvature_rel_err": ("ratio", "lower", None),
})


def child_env():
    return {k: v for k, v in os.environ.items() if k not in THREAD_VARS}


def run_child(args, mode, work, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--work", str(work), "--budget", str(max(1.0, deadline - time.monotonic() - 20))]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def ops_per_s(op_s, cycle_ops):
    """Ops per second of the median cycle.

    Every cycle runs the same op positions with the same amount of work, so
    the median latency of each position over the cycles, summed, is the time
    of a typical cycle.  Unlike a plain total it is not moved by a burst of
    load from elsewhere on the host that slows a few ops.
    """
    positions = [op_s[j::cycle_ops] for j in range(cycle_ops)]
    return cycle_ops / sum(statistics.median(p) for p in positions)


def measure(args):
    deadline = time.monotonic() + TIME_LIMIT
    work = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, "setup", work, deadline)["setup_s"])
        child = run_child(args, "trace" if args.trace else "run", work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    op_s = child["op_s"]
    metrics = {}
    if args.trace:
        metrics.update(child["per_layer"])
    else:
        metrics["setup_s"] = statistics.median(setups + [child["setup_s"]])
        metrics["ops_per_s"] = ops_per_s(op_s, child["cycle_ops"])
        metrics["op_p50_ms"] = 1e3 * statistics.median(op_s)
        metrics["peak_rss_mb"] = child["peak_rss_mb"]
        if len(op_s) >= P90_MIN_OPS:
            metrics["op_p90_ms"] = 1e3 * statistics.quantiles(op_s, n=10)[-1]
        if child["nodes"]:
            metrics["nodes_per_s"] = child["nodes"] / sum(op_s)
        metrics["error_rate"] = child["failed"] / child["attempted"]
        if child["radius_rel_err"] is not None:
            metrics["curvature_rel_err"] = child["radius_rel_err"]
    env = dict(child["env"], seed=args.seed,
               stripped=[v for v in THREAD_VARS if v in os.environ])
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "ops": len(op_s),
        "attempted": child["attempted"], "failed": child["failed"],
        "failures": child["failures"], "metrics": metrics, "env": env,
    }


def report(record):
    for name, value in record["metrics"].items():
        note = f"  ({record['ops']} samples)" if name.startswith("op_") else ""
        print(f"{record['workload']:<13} {name:<42} {value:>14.6g} {RULES[name][0]}{note}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    listed = SPEC["per_layer" if record["trace"] else "end_to_end"]
    last = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(last))


# ---------------------------------------------------------------------------
# compare mode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound):
    """improved / unchanged / worse / unresolved for one metric.

    Improved: the new side wins at least nine tenths of all (old, new) pairs
    and its median is better by more than the old side's quartile spread.
    Worse: the median is worse by more than ``bound`` times the old median,
    or, for metrics without a bound, the improved rule mirrored.  When the
    old side spreads wider than the bound, only a clean separation of the
    two sides decides; anything else is unresolved.
    """
    sign = -1.0 if better == "lower" else 1.0
    q1, med_old, q3 = quartiles(old)
    med_new = statistics.median(new)
    gain = sign * (med_new - med_old)
    diffs = [sign * (b - a) for a in old for b in new]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    noisy = bound is not None and med_old != 0 and (q3 - q1) / abs(med_old) > bound
    if noisy and wins < len(diffs) and losses < len(diffs):
        return "unresolved"
    if wins >= 0.9 * len(diffs) and gain > q3 - q1:
        return "improved"
    if bound is not None:
        return "worse" if -gain > bound * abs(med_old) else "unchanged"
    return "worse" if losses >= 0.9 * len(diffs) and -gain > q3 - q1 else "unchanged"


def load_records(path):
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, value in rec["metrics"].items():
                    runs[rec["workload"]][name].append(value)
    return runs


def compare(old_path, new_path):
    old, new = load_records(old_path), load_records(new_path)
    worse = False
    for workload in sorted(set(old) & set(new)):
        for name in sorted(set(old[workload]) & set(new[workload])):
            _unit, better, bound = RULES[name]
            a, b = old[workload][name], new[workload][name]
            result = verdict(a, b, better, bound)
            worse = worse or result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) * 100 if qa[1] else float("nan")
            print(f"{workload:<13} {name:<42} "
                  f"old {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}  "
                  f"new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}  "
                  f"{change:+.1f}%  {result}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description="statemetric benchmark")
    parser.add_argument("--workload", choices=("grid_small_d", "grid_large_d",
                                               "pointwise", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for testing the harness")
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "statemetric" / "__init__.py").is_file():
        print(f"error: no statemetric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    report(record)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
