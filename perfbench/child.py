"""One workload process: set up, run ops in a closed loop, check every output.

Started by run.py with the thread variables stripped from its environment.
Prints one JSON record as the last line of its standard output.

Modes:
  setup  import statemetric and set the workload's models up, nothing more;
  run    set up, then run whole cycles until the summed op time reaches
         --seconds;
  trace  set up under the tracer, run a warm-up cycle, then replay cycle 0
         untraced and traced in turn until the untraced replays add up to
         half of --seconds; report the per-layer numbers of the set-up plus
         the first traced replay, and the tracing overhead from the medians.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import statemetric  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def environment():
    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np),
        "scipy_openblas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_op(op, models, rng, stats, failures):
    """Execute, time and check one op; returns (seconds, rendered output)."""
    start = time.perf_counter()
    try:
        rc, result = wl.execute(op, models)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failures.append(f"{op.kind} {op.model}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    try:
        wl.check(op, rc, result, models, rng, stats)
    except (wl.CheckFailed, KeyError, ValueError, TypeError) as exc:
        failures.append(f"{op.kind} {op.model}: {exc}")
    return elapsed, wl.render(op, result)


def replay_traced(tracer, ops, models):
    """Run ops with the tracer installed; outputs are checked by the caller."""
    results = []
    undo = tracing.install(tracer, statemetric)
    start = time.perf_counter()
    try:
        for index, op in enumerate(ops):
            tracer.op = index
            try:
                results.append(wl.execute(op, models))
            except Exception as exc:  # reported by the caller as a failed op
                results.append(exc)
    finally:
        elapsed = time.perf_counter() - start
        tracing.uninstall(undo)
    return results, elapsed


def check_rng(args, k):
    return np.random.default_rng([args.seed, 2, k])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--budget", type=float, default=150.0,
                        help="wall seconds after which the timed loop stops")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    src = Path(statemetric.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"statemetric imported from {src}, not from this checkout")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    specs = wl.model_specs(args.workload, args.seed, args.smoke)

    tracer = undo = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, statemetric)
    try:
        models = wl.setup(specs, work)
    finally:
        if undo:
            tracing.uninstall(undo)
    setup_s = time.perf_counter() - T0
    record = {"setup_s": setup_s, "env": environment()}
    if args.mode == "setup":
        return record

    stats, failures = wl.CheckStats(), []
    attempted = 0

    def run_cycle(k):
        nonlocal attempted
        rng = check_rng(args, k)
        times, outputs = [], []
        for op in wl.cycle(args.workload, args.seed, k, models, args.smoke):
            attempted += 1
            t, out = run_op(op, models, rng, stats, failures)
            times.append(t)
            outputs.append(out)
        return times, outputs

    if args.mode == "run":
        # no warm-up: a cold first cycle is one sample of the cycle median
        gc.collect()
        op_s, k = [], 0
        while not op_s or (sum(op_s) < args.seconds
                           and time.perf_counter() - T0 < args.budget):
            times, _ = run_cycle(k)
            op_s += times
            k += 1
        record.update(op_s=op_s, cycle_ops=len(times), nodes=stats.nodes)
    else:
        run_cycle(1)  # warm-up
        traced_ops = wl.cycle(args.workload, args.seed, 0, models, args.smoke)
        untraced, traced = [], []
        # alternate untraced and traced replays of cycle 0; the per-layer
        # numbers come from the first traced replay (plus the traced set-up)
        while not traced or (sum(untraced) < args.seconds / 2
                             and time.perf_counter() - T0 < args.budget):
            gc.collect()
            untraced_s, untraced_out = run_cycle(0)
            untraced.append(sum(untraced_s))
            gc.collect()
            replay = tracer if not traced else tracing.Tracer()
            results, elapsed = replay_traced(replay, traced_ops, models)
            traced.append(elapsed)
            for op, result, reference in zip(traced_ops, results, untraced_out):
                attempted += 1
                if isinstance(result, Exception):
                    failures.append(f"traced {op.kind} {op.model}: {result!r}")
                elif result[0] != 0 or wl.render(op, result[1]) != reference:
                    failures.append(f"traced {op.kind} {op.model}: "
                                    "output differs from untraced")
        per_layer = tracing.layer_metrics(tracer.spans, statemetric.verify.CHECK_IDS)
        base = statistics.median(untraced)
        overhead = statistics.median(traced) - base
        per_layer["trace.overhead_s"] = overhead
        per_layer["trace.overhead_pct"] = 100.0 * overhead / base
        per_layer["geometry.curvature_rel_err"] = max(stats.radius_rel_err, default=0.0)
        record.update(per_layer=per_layer, op_s=untraced_s)

    record.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:10],
        radius_rel_err=max(stats.radius_rel_err, default=None),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return record


if __name__ == "__main__":
    print(json.dumps(main()))
