"""One smoke-sized cycle of each benchmark workload, run in-process.

``perfbench/workloads.py`` drives the package through the names it imports
(``cli.main``, ``geometry.classify``, ``oracle.fd_metric``, ``MetricTensor.g``,
the ``CurvatureReport`` fields, ...) and checks every op's output against the
closed forms and the fd oracle.  This runs the same ``setup``, ``cycle``,
``execute`` and ``check`` on one cycle of each workload, so a change that
removes or reshapes a name the benchmark reads fails here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_smoke_cycle_passes_its_checks(workload, tmp_path):
    models = wl.setup(wl.model_specs(workload, seed=1, smoke=True), tmp_path)
    ops = wl.cycle(workload, 1, 0, models, smoke=True)
    assert ops
    rng, stats = np.random.default_rng(0), wl.CheckStats()
    for op in ops:
        rc, result = wl.execute(op, models)
        wl.check(op, rc, result, models, rng, stats)
        wl.render(op, result)
