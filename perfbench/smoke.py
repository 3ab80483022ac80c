"""Smoke test of the benchmark harness at its smallest sizes.

    python3 -m pytest perfbench/smoke.py

Runs every workload once untraced and once traced, and checks that no op
failed and that the last line names exactly the metrics BENCHMARK.json lists.
Then compares the records with themselves, and checks the span recorder
under more threads than cores.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return tmp_path_factory.mktemp("bench") / "records.jsonl"


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload, trace, records):
    proc = run("--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", trace, "--smoke", "--out", str(records))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    record = [json.loads(line) for line in records.read_text().splitlines()][-1]
    if trace == "0":
        assert record["metrics"]["error_rate"] == 0
    for key in ("python", "numpy", "scipy", "numpy_openblas", "nproc", "cpu_count",
                "seed", "stripped"):
        assert key in record["env"]


def test_compare_with_itself(records):
    proc = run("--compare", str(records), str(records))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()]
    assert verdicts and set(verdicts) == {"unchanged"}


def test_tracer_under_threads():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("geometry.metric_at", lambda: None)

    def fan_out():
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: [leaf() for _ in range(500)], range(8)))

    root = tracer.wrap("geometry.metric_field", fan_out)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        root()
    finally:
        sys.setswitchinterval(interval)
    ids = [span[0] for span in tracer.spans]
    assert len(ids) == len(set(ids)) == 1 + 8 * 500
    (root_id,) = [span[0] for span in tracer.spans if span[1] == "geometry.metric_field"]
    assert all(span[2] == root_id for span in tracer.spans if span[0] != root_id)
