"""Argv fuzzing of the CLI: whatever the tokens, a run ends in exit code 0,
1 or 2 and never in a traceback.

Sizes stay bounded (spin s <= 3, truncation <= 64, at most 4 nodes per
sweep), so no example asks for a large allocation.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import cli, manifest
from statemetric.verify import catalog

NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e200", "-1e200", "0.5", "1", "2.5",
           "-0.3", "abc", "", "1e-300"]
COUNTS = ["-1", "0", "1", "2", "3", "4", "2.5", "x", "nan", ""]
SETTINGS = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """Manifest paths and parameter names of three small catalog models."""
    root = tmp_path_factory.mktemp("manifests")
    out = {}
    for key, model in catalog().items():
        if key in ("spin_1_m0", "oscillator_n0", "two_spin_sum"):
            path = root / f"{key}.json"
            path.write_text(manifest.dumps(manifest.model_to_manifest(model)), encoding="utf-8")
            out[key] = (str(path), model.parameter_names)
    return out


def run(argv):
    """(exit code, stdout, stderr) of one CLI run; argparse exits count."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean(argv):
    code, _out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv


@st.composite
def bindings(draw, names):
    """--at NAME=VALUE pairs over known and unknown names, repeats allowed,
    plus the odd malformed token and maybe --defaults-zero."""
    name = st.sampled_from(list(names) + ["bogus", ""])
    pairs = draw(st.lists(st.tuples(name, st.sampled_from(NUMBERS)), max_size=4))
    argv = [tok for n, v in pairs for tok in ("--at", f"{n}={v}")]
    if draw(st.booleans()):
        argv += ["--at", draw(st.sampled_from(["novalue", "=1", "theta_1"]))]
    if draw(st.booleans()):
        argv.append("--defaults-zero")
    return argv


@st.composite
def model_case(draw, manifests):
    return manifests[draw(st.sampled_from(sorted(manifests)))]


@given(data=st.data())
@SETTINGS
def test_metric(manifests, data):
    path, names = data.draw(model_case(manifests))
    assert_clean(["metric", path] + data.draw(bindings(names)))


@given(data=st.data())
@SETTINGS
def test_grid(manifests, data):
    path, names = data.draw(model_case(manifests))
    name = st.sampled_from(list(names) + ["bogus"])
    sweeps = data.draw(st.lists(st.tuples(name, st.sampled_from(NUMBERS),
                                          st.sampled_from(NUMBERS),
                                          st.sampled_from(COUNTS)),
                                min_size=1, max_size=2))
    argv = ["grid", path] + [tok for n, lo, hi, c in sweeps
                             for tok in ("--sweep", f"{n}={lo}:{hi}:{c}")]
    argv += data.draw(bindings(names))
    argv = [a for a in argv if a != "--defaults-zero"]  # grid has no such flag
    argv += ["--format", data.draw(st.sampled_from(["csv", "json", "xml"]))]
    assert_clean(argv)


@given(data=st.data())
@SETTINGS
def test_curvature(manifests, data):
    path, names = data.draw(model_case(manifests))
    name = st.sampled_from(list(names) + ["bogus"])
    section = ",".join(data.draw(st.lists(name, min_size=1, max_size=3)))
    assert_clean(["curvature", path, "--section", section] + data.draw(bindings(names)))


SPIN = ["0.5", "1", "1.5", "2", "3", "0", "-1", "0.7", "nan", "inf", "x"]
OPTIONS = {
    "spin": {"--s": SPIN, "--m": NUMBERS + ["-0.5", "7"],
             "--coeffs": ["0.6,0,0.8", "1", "nan,0,1", "1e200,0,1", "0,0,0", "x,y", "1j,0,0"]},
    "oscillator": {"--mass": NUMBERS, "--omega": NUMBERS,
                   "--n": ["-1", "0", "1", "2", "1e200", "x"],
                   "--trunc": ["-1", "0", "5", "8", "16", "64"]},
    "two_spin": {"--eta": NUMBERS, "--chi": NUMBERS,
                 "--initial": ["up_down", "plus_minus", "minus_plus", "bogus", ""]},
}


@given(data=st.data())
@SETTINGS
def test_models_emit(data):
    model_id = data.draw(st.sampled_from(["spin", "oscillator", "two_spin_dm_xx",
                                          "two_spin_sum", "two_spin_directional", "bogus"]))
    options = OPTIONS["two_spin" if model_id.startswith("two_spin") else
                      model_id if model_id in OPTIONS else "spin"]
    flags = st.sampled_from(sorted(options) + ["--gamma"])
    argv = ["models", "emit", model_id]
    for flag in data.draw(st.lists(flags, max_size=4)):  # repeats allowed
        argv += [flag, data.draw(st.sampled_from(options.get(flag, NUMBERS)))]
    assert_clean(argv)
