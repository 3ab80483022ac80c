"""One smoke-sized cycle of each benchmark workload, run in-process.

``perfbench/workloads.py`` drives the package through the names it imports
(``cli.main``, ``geometry.classify``, ``oracle.fd_metric``, ``MetricTensor.g``,
the ``CurvatureReport`` fields, ...) and checks every op's output against the
closed forms and the fd oracle.  This runs the same ``setup``, ``cycle``,
``execute`` and ``check`` on one cycle of each workload, so a change that
removes or reshapes a name the benchmark reads fails here.  The tracer of
``perfbench/tracing.py`` must still see the CLI commands it rebinds.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import statemetric  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from statemetric import cli, manifest  # noqa: E402
from statemetric.models import SpinModelSpec, spin_model  # noqa: E402


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


@pytest.mark.parametrize("built", ["before", "under"])
def test_tracer_sees_the_commands_it_wraps(built, tmp_path, capsys):
    """A parser built before the tracer is installed, or while it is, leads
    the traced op to the traced command and later ops to the plain one."""
    path = tmp_path / "spin.json"
    path.write_text(manifest.emit(spin_model(SpinModelSpec(s=1, m=0))), encoding="utf-8")
    argv = ["metric", str(path), "--defaults-zero"]
    if built == "before":
        assert cli.main(argv) == 0
    else:
        cli._parser.cache_clear()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, statemetric)
    try:
        assert cli.main(argv) == 0
    finally:
        tracing.uninstall(undo)
    assert "cli.cmd_metric" in {span[1] for span in tracer.spans}
    spans = len(tracer.spans)
    assert cli.main(argv) == 0
    assert len(tracer.spans) == spans
