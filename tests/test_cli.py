import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from statemetric import cli, geometry, manifest
from statemetric.geometry import GridSpec
from statemetric.models import (
    MAX_HILBERT_DIM,
    OscillatorModelSpec,
    SpinModelSpec,
    oscillator_model,
    spin_model,
)
from statemetric.verify import catalog

from manifest_forms import SPARSE_REFUSALS, dense_doc, one_entry_doc

SPIN = spin_model(SpinModelSpec(s=1, m=0))


@pytest.fixture()
def spin_manifest(tmp_path):
    path = tmp_path / "spin.json"
    path.write_text(manifest.emit(spin_model(SpinModelSpec(s=1, m=0))), encoding="utf-8")
    return str(path)


@pytest.fixture()
def comma_manifest(tmp_path, spin_manifest):
    """The spin manifest with a parameter named 'a,b', which a CSV header
    cannot hold."""
    doc = json.loads(Path(spin_manifest).read_text(encoding="utf-8"))
    doc["circuit"][0][1] = "a,b"
    path = tmp_path / "comma.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def osc_manifest(tmp_path):
    path = tmp_path / "osc.json"
    path.write_text(manifest.emit(oscillator_model(OscillatorModelSpec())), encoding="utf-8")
    return str(path)


def scaled_manifest(tmp_path, model, scales) -> str:
    """Path of the model's manifest with each generator times its scale."""
    doc = dense_doc(model)
    doc["generators"] = {k: (scale * np.array(v)).tolist()
                         for (k, v), scale in zip(doc["generators"].items(), scales)}
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


class TestValidate:
    def test_good_manifest(self, spin_manifest, capsys):
        assert cli.main(["validate", spin_manifest]) == 0
        out = capsys.readouterr().out
        assert "detected kind: so3" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("s,scale", [(3, 1e3), (1, 1e4), (2, 1e4), (3, 1e4)])
    def test_scaled_algebra_is_closed(self, s, scale, tmp_path, capsys):
        # closure and Jacobi bounds grow with the generators' entries
        path = scaled_manifest(tmp_path, spin_model(SpinModelSpec(s=s, m=s)), [scale] * 3)
        assert cli.main(["validate", path]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_scaled_oscillator_kind(self, tmp_path, capsys):
        # (k x, k p, k^2 1) keeps [A, B] = i C at any k
        k = 1e3
        path = scaled_manifest(tmp_path, oscillator_model(OscillatorModelSpec()), [k, k, k * k])
        assert cli.main(["validate", path]) == 0
        assert "detected kind: heisenberg(1)" in capsys.readouterr().out

    def test_open_algebra_is_domain_failure(self, tmp_path, spin_manifest, capsys):
        doc = json.loads(Path(spin_manifest).read_text(encoding="utf-8"))
        del doc["generators"]["Sy"]
        doc["circuit"] = [["Sz", "theta_1"], ["Sx", "theta_2"]]
        path = tmp_path / "open.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().out.startswith("FAIL: [Sz, Sx] leaves the span")

    def test_oscillator_kind(self, osc_manifest, capsys):
        assert cli.main(["validate", osc_manifest]) == 0
        assert "heisenberg(1)" in capsys.readouterr().out

    def test_non_hermitian_is_domain_failure(self, tmp_path, capsys):
        doc = dense_doc(SPIN)
        doc["generators"]["Sy"][0][0] = [0.0, 1.0]  # imaginary diagonal entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert cli.main(["validate", str(bad)]) == 1
        assert "'Sy'" in capsys.readouterr().out

    def test_rotated_scaled_algebra_is_hermitian(self, tmp_path, capsys):
        # a unitary rotation leaves a Hermiticity defect that grows with the
        # entries: about 3e-10 at 1e6, held to HERM_TOL * max|M| like closure
        doc = dense_doc(spin_model(SpinModelSpec(s=2, m=2)))
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        for name, G in doc["generators"].items():
            G = np.array(G).view(complex)[..., 0]
            rotated = 1e6 * (Q @ G @ Q.conj().T)
            doc["generators"][name] = np.stack([rotated.real, rotated.imag], -1).tolist()
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("[ok]") == 5

    def test_malformed_json_is_usage_failure(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{", encoding="utf-8")
        assert cli.main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["validate", "/nonexistent/m.json"]) == 2


class TestMetric:
    def test_point_metric_json(self, spin_manifest, capsys):
        code = cli.main(["metric", spin_manifest, "--at", "theta_1=0.2",
                         "--at", "theta_2=1.0", "--at", "theta_3=0.3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 2
        assert doc["flat"] is False
        assert doc["oracle_max_diff"] < 1e-6
        g = np.array(doc["g"])
        assert g[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_oscillator_reported_flat(self, osc_manifest, capsys):
        code = cli.main(["metric", osc_manifest, "--defaults-zero"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flat"] is True
        assert np.allclose(doc["g"], np.diag([0.5, 0.5]), atol=1e-10)

    def test_unmoved_state_is_flat(self, tmp_path, capsys):
        # spin 1 plus a trivial block, rotated: no generator moves the state
        # in that block, so g is rounding noise (rank 0) that the constancy
        # rule, like the rank rule, reads as the zero metric
        doc = dense_doc(SPIN)
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        for name, G in doc["generators"].items():
            G = np.pad(np.array(G).view(complex)[..., 0], ((0, 1), (0, 1)))
            rotated = Q @ G @ Q.conj().T
            doc["generators"][name] = np.stack([rotated.real, rotated.imag], -1).tolist()
        doc["dimension"] = 4
        doc["initial_state"] = np.stack([Q[:, 3].real, Q[:, 3].imag], -1).tolist()
        path = tmp_path / "unmoved.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["metric", str(path), "--defaults-zero"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 0 and 0 < np.max(np.abs(doc["g"])) < 1e-20
        assert doc["flat"] is True

    def test_unbound_parameter_is_usage_error(self, spin_manifest, capsys):
        assert cli.main(["metric", spin_manifest, "--at", "theta_1=0.2"]) == 2

    def test_unknown_parameter(self, spin_manifest, capsys):
        assert cli.main(["metric", spin_manifest, "--at", "bogus=1",
                         "--defaults-zero"]) == 2

    def test_malformed_at(self, spin_manifest, capsys):
        assert cli.main(["metric", spin_manifest, "--at", "theta_1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["metric", "--at=theta_2=0", "--at=theta_3=0"],
        ["grid", "--sweep", "theta_2=0:1:2"],
        ["curvature", "--section", "theta_1,theta_2", "--at=theta_2=0", "--at=theta_3=0"],
    ], ids=["metric", "grid", "curvature"])
    def test_overflowing_phase_is_domain_error(self, tmp_path, argv, capsys):
        # a finite angle whose phase theta * w is not: refused by name, not a
        # NaN metric (pytest turns the RuntimeWarnings it once raised into errors)
        path = tmp_path / "spin.json"
        path.write_text(manifest.emit(catalog()["spin_3half"]), encoding="utf-8")
        assert cli.main([argv[0], str(path), "--at=theta_1=1.7e308", *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: parameter 'theta_1': angle 1.7e+308 gives a "
                                     "phase theta * w that is not finite\n")

    def test_deterministic_output(self, spin_manifest, capsys):
        argv = ["metric", spin_manifest, "--defaults-zero", "--at", "theta_2=0.9"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        assert capsys.readouterr().out == first


class TestGrid:
    def test_csv_output(self, spin_manifest, tmp_path):
        out = tmp_path / "grid.csv"
        code = cli.main(["grid", spin_manifest, "--sweep", "theta_2=0.5:1.5:3",
                        "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "theta_2,g_11,g_12,g_13,g_22,g_23,g_33"
        assert len(lines) == 4
        mid = [float(v) for v in lines[2].split(",")]
        assert mid[0] == 1.0
        assert mid[4] == pytest.approx(1.0, abs=1e-12)  # g_22 = R^2 = 1

    def test_json_node_count(self, spin_manifest, capsys):
        code = cli.main(["grid", spin_manifest, "--sweep", "theta_1=0:1:2",
                        "--sweep", "theta_2=0.5:1.0:3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nodes"]) == 6
        assert doc["fixed"] == {"theta_3": 0.0}

    @pytest.mark.parametrize("key", sorted(catalog()))
    def test_json_equals_json_dumps(self, key, tmp_path, capsys):
        self._check_json(catalog()[key], tmp_path, capsys)

    @staticmethod
    def _check_grid_json(parameters, points, metrics):
        doc = {"name": "spin", "gamma": 1.0, "parameters": parameters,
               "sweeps": {parameters[0]: [0.0, 1.0, len(points)]},
               "fixed": dict(zip(parameters[1:], points[0, 1:].tolist()))}
        expected = json.dumps({**doc, "nodes": [
            {"point": dict(zip(parameters, x)), "g": g.tolist()}
            for x, g in zip(points.tolist(), metrics)]}, indent=2) + "\n"
        assert cli._grid_json(doc, points, metrics) == expected

    def test_json_non_finite_equals_json_dumps(self):
        # the manifest now rejects the infinite gamma that once put inf and
        # nan into a metric field, so the writer gets such a field directly
        self._check_grid_json(["a", "b"], np.array([[0.0, 0.5], [1.0, 0.5]]),
                              np.array([[[np.inf, np.nan], [np.nan, 1.0]],
                                        [[-np.inf, 0.25], [0.25, -0.0]]]))

    @pytest.mark.parametrize("parameters", [
        ["a%b", "%s"], ["a\\b", "c"], ["\u00e9", "\u03b8_2%"], ["%%", "%(x)s", "\\%"],
        ["t"],
    ], ids=["percent", "backslash", "non-ascii", "format-specs", "one-parameter"])
    def test_json_names_and_shapes_equal_json_dumps(self, parameters):
        m = len(parameters)
        points = np.array([[0.0, 0.5, -0.0][:m], [1.0, 0.5, np.nan][:m]])
        metrics = np.arange(2.0 * m * m).reshape(2, m, m) - 1.5
        metrics[1, 0, 0] = np.inf
        self._check_grid_json(parameters, points, metrics)

    @staticmethod
    def _check_json(model, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(manifest.emit(model), encoding="utf-8")
        model = manifest.load_model(path)
        first, second, *rest = model.parameter_names
        sweeps = {first: (-1.0, 1.25, 4), second: (0.3, 2.0, 3)}
        argv = ["grid", str(path), "--sweep", f"{first}=-1.0:1.25:4",
                "--sweep", f"{second}=0.3:2.0:3"]
        argv += [f"--at={p}=0.7" for p in rest]
        assert cli.main(argv) == 0
        fixed = dict.fromkeys(rest, 0.7)
        field = geometry.metric_field(model, GridSpec(sweeps, fixed))
        expected = json.dumps({
            "name": model.name,
            "gamma": model.gamma,
            "parameters": list(model.parameter_names),
            "sweeps": {n: list(v) for n, v in sweeps.items()},
            "fixed": fixed,
            "nodes": [
                {"point": dict(zip(model.parameter_names, x)), "g": g.tolist()}
                for x, g in zip(field.angles.tolist(), field.g)
            ],
        }, indent=2) + "\n"
        assert capsys.readouterr().out == expected

    def test_csv_header_and_row_order(self, spin_manifest, capsys):
        sweeps = {"theta_3": (-0.5, 0.5, 3), "theta_1": (0.0, 1.0, 2)}
        assert cli.main(["grid", spin_manifest, "--sweep", "theta_3=-0.5:0.5:3",
                         "--sweep", "theta_1=0:1:2", "--at", "theta_2=0.9",
                         "--format", "csv"]) == 0
        field = geometry.metric_field(manifest.load_model(spin_manifest),
                                      GridSpec(sweeps, {"theta_2": 0.9}))
        upper = [(i, j) for i in range(3) for j in range(i, 3)]
        expected = ["theta_3,theta_1," + ",".join(f"g_{i + 1}{j + 1}" for i, j in upper)]
        for x, g in zip(field.angles.tolist(), field.g):  # the last sweep varies fastest
            expected.append(",".join([repr(x[2]), repr(x[0])]
                                     + [repr(float(g[i, j])) for i, j in upper]))
        assert capsys.readouterr().out == "\n".join(expected) + "\n"
        assert field.angles[:2, 0].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signed_zeros_render_apart(self, fmt, spin_manifest, monkeypatch, capsys):
        # -0.0 == 0.0, but their bit patterns and their texts differ
        real = geometry.metric_field

        def signed_zeros(model, grid):
            field = real(model, grid)
            pick = np.arange(field.g.size).reshape(field.g.shape) % 3
            g = np.choose(pick, [0.0, -0.0, field.g])
            return geometry.MetricField(field.grid, field.angles, g, field.model)

        monkeypatch.setattr(geometry, "metric_field", signed_zeros)
        assert cli.main(["grid", spin_manifest, "--sweep", "theta_1=-0.0:-0.0:2",
                         "--sweep", "theta_2=-0.0:1:3", "--at", "theta_3=-0.0",
                         "--format", fmt]) == 0
        field = signed_zeros(manifest.load_model(spin_manifest), GridSpec(
            {"theta_1": (-0.0, -0.0, 2), "theta_2": (-0.0, 1.0, 3)}, {"theta_3": -0.0}))
        assert set(map(repr, field.angles[:, 0].tolist())) == {"0.0", "-0.0"}
        assert set(map(repr, field.g.ravel().tolist())) >= {"0.0", "-0.0"}
        if fmt == "csv":
            upper = np.triu_indices(3)
            rows = np.concatenate([field.angles[:, :2], field.g[:, upper[0], upper[1]]], axis=1)
            expected = "theta_1,theta_2,g_11,g_12,g_13,g_22,g_23,g_33\n" + "".join(
                ",".join(map(repr, row)) + "\n" for row in rows.tolist())
        else:
            expected = json.dumps({
                "name": field.model.name,
                "gamma": field.model.gamma,
                "parameters": ["theta_1", "theta_2", "theta_3"],
                "sweeps": {"theta_1": [-0.0, -0.0, 2], "theta_2": [-0.0, 1.0, 3]},
                "fixed": {"theta_3": -0.0},
                "nodes": [{"point": dict(zip(["theta_1", "theta_2", "theta_3"], x)),
                           "g": g.tolist()} for x, g in zip(field.angles.tolist(), field.g)],
            }, indent=2) + "\n"
        assert capsys.readouterr().out == expected

    def test_bad_sweep_syntax(self, spin_manifest, capsys):
        assert cli.main(["grid", spin_manifest, "--sweep", "theta_2=nope"]) == 2


@pytest.mark.parametrize("argv", [
    ["metric", "{manifest}", "--defaults-zero", "--at", "theta_1=nan"],
    ["metric", "{manifest}", "--defaults-zero", "--at", "theta_1=inf"],
    ["grid", "{manifest}", "--sweep", "theta_2=0:1:3", "--at", "theta_1=-inf"],
    ["curvature", "{manifest}", "--defaults-zero", "--at", "theta_2=nan",
     "--section", "theta_1,theta_2"],
    ["validate", "{dir}"],
    ["metric", "{dir}", "--defaults-zero"],
    ["grid", "{manifest}", "--sweep", "theta_9=0:1:3"],
    ["grid", "{manifest}", "--sweep", "theta_1=nan:1:3"],
    ["grid", "{manifest}", "--sweep", "theta_1=0:inf:3"],
    ["grid", "{manifest}", "--sweep", "theta_1=0:1:0"],
    ["grid", "{manifest}", "--sweep", "theta_1=0:1:-2"],
    ["grid", "{manifest}", "--sweep", "theta_1=0:1:2", "--sweep", "theta_1=5:6:2"],
    ["grid", "{manifest}", "--sweep", "theta_1=-1e308:1e308:3"],
    ["grid", "{manifest}", "--sweep", "theta_1=1e308:-1e308:1"],
    # 8 PB of angles: refused before a page is touched
    ["grid", "{manifest}", "--sweep", "theta_1=0:1:1000000000000000"],
    # more nodes than any float64 array holds: refused before numpy sees the count
    ["grid", "{manifest}", "--sweep", "theta_1=0:1:2000000000000000000"],
    ["grid", "{manifest}", "--sweep", "theta_1=0:1:9223372036854775807"],
    ["grid", "{manifest}", "--sweep", "theta_1=0:1:10000000000000000000"],
    ["models", "emit", "spin", "--s", "1", "--m", "0", "--gamma", "nan"],
    ["models", "emit", "spin", "--s", "1", "--m", "0", "--gamma", "inf"],
    ["models", "emit", "oscillator", "--gamma", "0"],
    ["models", "emit", "two_spin_dm_xx", "--gamma", "-2"],
    ["models", "emit", "spin", "--s", "1", "--m", "0", "--gamma", "1e200"],
    # an option that would be ignored is refused
    ["metric", "{manifest}", "--defaults-zero", "--at", "theta_1=1", "--at", "theta_1=2"],
    ["grid", "{manifest}", "--sweep", "theta_2=0:1:3", "--at", "theta_1=1",
     "--at", "theta_1=2"],
    ["curvature", "{manifest}", "--defaults-zero", "--at", "theta_2=1", "--at", "theta_2=2",
     "--section", "theta_1,theta_2"],
    ["grid", "{manifest}", "--sweep", "theta_2=0:1:3", "--at", "theta_2=0.5"],
    ["models", "emit", "oscillator", "--s", "7"],
    ["models", "emit", "two_spin_sum", "--m", "3"],
    ["models", "emit", "spin", "--s", "1", "--m", "0", "--trunc", "5"],
    ["models", "emit", "spin", "--s", "1", "--m", "0", "--coeffs", "0,1,0"],
    # a parameter name the CLI cannot address
    ["grid", "{comma}", "--sweep", "theta_2=0:1:3", "--format", "csv"],
], ids=["metric-nan", "metric-inf", "grid-inf", "curvature-nan", "validate-dir",
        "metric-dir", "grid-unknown-sweep", "grid-nan-bound", "grid-inf-bound",
        "grid-zero-count", "grid-negative-count", "grid-repeated-sweep",
        "grid-overflowing-span", "grid-overflowing-span-one-node", "grid-unallocatable",
        "grid-too-big", "grid-intp-max", "grid-beyond-intp",
        "emit-nan-gamma", "emit-inf-gamma", "emit-zero-gamma", "emit-negative-gamma",
        "emit-huge-gamma", "metric-repeated-at", "grid-repeated-at", "curvature-repeated-at",
        "grid-swept-at", "emit-oscillator-s", "emit-two-spin-m", "emit-spin-trunc",
        "emit-spin-m-and-coeffs", "grid-comma-in-parameter-name"])
def test_bad_input_is_usage_error(argv, spin_manifest, comma_manifest, tmp_path, capsys):
    argv = [a.format(manifest=spin_manifest, dir=tmp_path, comma=comma_manifest) for a in argv]
    assert cli.main(argv) == 2  # an exception escaping main fails the test too
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""


@pytest.mark.parametrize("flag,value", [("--mass", "-1"), ("--omega", "0"), ("--n", "-1")])
def test_bad_oscillator_is_domain_error(flag, value, capsys):
    assert cli.main(["models", "emit", "oscillator", flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["spin", "--s", str(MAX_HILBERT_DIM / 2)], ["spin", "--s", "1e9", "--m", "0"],
    ["spin", "--s", "1e308"],  # 2s overflows to inf
    ["oscillator", "--trunc", str(MAX_HILBERT_DIM + 1)],
    ["oscillator", "--trunc", "1000000000"],
], ids=["spin-max", "spin-1e9", "spin-1e308", "trunc-max", "trunc-1e9"])
def test_oversized_emit_is_domain_error(argv, capsys):
    # refused before any matrix is allocated
    assert cli.main(["models", "emit"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "maximum" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (["--s", "nan"], 1), (["--s", "inf"], 1), (["--s", "1", "--m", "nan"], 1),
    (["--s", "1", "--coeffs", "nan,0,1"], 1), (["--s", "1", "--coeffs", "x,0,1"], 2),
    (["--s", "1", "--coeffs", "1e200,0,0"], 1),
], ids=["nan-s", "inf-s", "nan-m", "nan-coeffs", "malformed-coeffs", "overflowing-norm"])
def test_bad_spin_exits_cleanly(argv, code, capsys):
    assert cli.main(["models", "emit", "spin"] + argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "metric"])
@pytest.mark.parametrize("entry", [1e308, 1e200])
def test_overflowing_generator_is_domain_failure(command, entry, tmp_path, capsys):
    doc = dense_doc(SPIN)
    doc["generators"]["Sz"][0][0] = [entry, 0.0]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    extra = ["--defaults-zero"] if command == "metric" else []
    assert cli.main([command, str(bad)] + extra) == 1
    out, err = capsys.readouterr()
    message = f"generator 'Sz' has an entry of magnitude {entry:.3e}; its entries overflow"
    if command == "validate":
        assert out.startswith(f"FAIL: {message}") and err == ""
    else:
        assert out == "" and err.startswith(f"error: {message}")


@pytest.mark.parametrize("command,field,value", [
    ("validate", ("generators", "Sz", 0, 0), [float("nan"), 0.0]),
    ("validate", ("initial_state", 1), [0.0, float("inf")]),
    ("metric", ("gamma",), float("inf")),
    ("metric", ("gamma",), 1e200),
    ("grid", ("gamma",), 1e200),
], ids=["validate-nan-generator", "validate-inf-state", "metric-inf-gamma",
        "metric-huge-gamma", "grid-huge-gamma"])
def test_non_finite_manifest_is_usage_error(command, field, value, tmp_path, capsys):
    doc = dense_doc(SPIN)
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")  # NaN / Infinity literals
    extra = {"metric": ["--defaults-zero"], "grid": ["--sweep", "theta_1=0:1:2"]}
    argv = [command, str(bad)] + extra.get(command, [])
    assert cli.main(argv) == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "metric"])
@pytest.mark.parametrize("sx,message", SPARSE_REFUSALS)
def test_sparse_refusal_is_usage_error(command, sx, message, spin_manifest, tmp_path,
                                      capsys):
    doc = json.loads(Path(spin_manifest).read_text(encoding="utf-8"))
    doc["generators"]["Sx"] = copy.deepcopy(sx)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    extra = ["--defaults-zero"] if command == "metric" else []
    assert cli.main([command, str(bad)] + extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.match("error: " + message, err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "metric"])
@pytest.mark.parametrize("dim", [10**6, 2**40])
def test_huge_declared_dimension_is_usage_error(command, dim, tmp_path, capsys):
    # a sparse manifest of a few hundred bytes can declare any dimension
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(one_entry_doc(dim)), encoding="utf-8")
    assert bad.stat().st_size < 300
    extra = ["--defaults-zero"] if command == "metric" else []
    assert cli.main([command, str(bad)] + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: dimension: expected an integer in [1, {MAX_HILBERT_DIM}]\n"


@pytest.mark.parametrize("amplitude", [[1e200, 0.0], [1e-200, 0.0], [5e-324, 0.0],
                                       [1.5e308, 1.5e308]],
                         ids=["1e200", "1e-200", "5e-324", "1.5e308-both-parts"])
def test_state_of_any_finite_scale_is_read(amplitude, spin_manifest, tmp_path, capsys):
    # normalized by its largest part first, so no norm overflows or underflows
    argv = ["metric", spin_manifest, "--defaults-zero", "--at", "theta_2=0.9"]
    assert cli.main(argv) == 0
    expected = json.loads(capsys.readouterr().out)
    doc = json.loads(Path(spin_manifest).read_text(encoding="utf-8"))
    doc["initial_state"][1] = amplitude  # the m = 0 amplitude, 1 in the spin manifest
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc), encoding="utf-8")
    argv[1] = str(scaled)
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert np.max(np.abs(np.array(json.loads(out)["g"]) - expected["g"])) <= 1e-15


@pytest.mark.parametrize("command", ["validate", "metric", "grid", "curvature"])
@pytest.mark.parametrize("data,message", [
    (b"\xff{}", "manifest is not UTF-8 text"),
    (b"\xef\xbb\xbf{}", "invalid JSON: Unexpected UTF-8 BOM"),  # as json.loads(str) says
], ids=["not-utf8", "bom"])
def test_undecodable_manifest_is_usage_error(command, data, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    extra = {"metric": ["--defaults-zero"], "grid": ["--sweep", "theta_1=0:1:2"],
             "curvature": ["--defaults-zero", "--section", "theta_1,theta_2"]}
    assert cli.main([command, str(bad)] + extra.get(command, [])) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


class TestCurvature:
    def test_sphere_classification(self, spin_manifest, capsys):
        code = cli.main(["curvature", spin_manifest, "--defaults-zero",
                        "--at", "theta_2=1.0", "--section", "theta_1,theta_2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "sphere"
        assert doc["gaussian_curvature"] == pytest.approx(1.0, abs=1e-12)
        assert doc["radius"] == pytest.approx(1.0, abs=1e-12)

    def test_generic_classification(self, tmp_path, capsys):
        # a spin-2 state spread over all levels: the section curvature at
        # the point and at the probe differ
        coeffs = (0.3, 0.4, 0.5, 0.6, np.sqrt(1 - 0.86))
        path = tmp_path / "spin2.json"
        path.write_text(manifest.emit(spin_model(SpinModelSpec(s=2, coefficients=coeffs))),
                        encoding="utf-8")
        assert cli.main(["curvature", str(path), "--at", "theta_1=0.2", "--at", "theta_2=1.0",
                         "--at", "theta_3=0.5", "--section", "theta_1,theta_2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "generic" and doc["radius"] is None

    def test_labels_follow_the_shared_rule(self, spin_manifest, osc_manifest, monkeypatch,
                                           capsys):
        # the command hands its two samples and metrics to curvature_label
        seen = []

        def spy(k, g):
            seen.append((np.array(k), g.shape))
            return "generic"

        monkeypatch.setattr(geometry, "curvature_label", spy)
        assert cli.main(["curvature", spin_manifest, "--defaults-zero",
                         "--at", "theta_2=1.0", "--section", "theta_1,theta_2"]) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == "generic"
        (k, shape), = seen
        assert k == pytest.approx([1.0, 1.0], abs=1e-12) and shape == (2, 3, 3)

    def test_flat_classification(self, osc_manifest, capsys):
        code = cli.main(["curvature", osc_manifest, "--defaults-zero",
                        "--section", "theta,phi"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "flat"
        assert doc["radius"] is None

    def test_small_gamma_sphere(self, tmp_path, capsys):
        # every rule is relative to the metric's scale: at gamma = 0.003 the
        # sphere is still a regular sphere of curvature 1 / gamma^2
        gamma = 0.003
        assert cli.main(["models", "emit", "spin", "--s", "1", "--m", "0",
                         "--gamma", str(gamma)]) == 0
        path = tmp_path / "small.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        at = ["theta_1=0.2", "theta_2=1.0", "theta_3=0.3"]
        assert cli.main(["curvature", str(path), "--section", "theta_1,theta_2"]
                        + [f"--at={a}" for a in at]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "sphere"
        assert doc["gaussian_curvature"] * gamma**2 == pytest.approx(1.0, abs=1e-9)
        outs = []
        for order in (at, at[::-1]):
            assert cli.main(["metric", str(path)] + [f"--at={a}" for a in order]) == 0
            outs.append(capsys.readouterr().out)
        assert json.loads(outs[0])["flat"] is False and outs[1] == outs[0]

    def test_degenerate_section_is_domain_failure(self, spin_manifest, capsys):
        # at theta_2 = 0 the (theta_1, theta_3) section has zero area
        code = cli.main(["curvature", spin_manifest, "--defaults-zero",
                        "--section", "theta_1,theta_3"])
        assert code == 1

    def test_bad_section_spec(self, spin_manifest, capsys):
        assert cli.main(["curvature", spin_manifest, "--defaults-zero",
                        "--section", "theta_1"]) == 2
        assert cli.main(["curvature", spin_manifest, "--defaults-zero",
                        "--section", "theta_1,bogus"]) == 2
        assert cli.main(["curvature", spin_manifest, "--defaults-zero",
                        "--section", "theta_1,theta_1"]) == 2


class TestVerify:
    def test_single_check_runs_clean(self, capsys):
        assert cli.main(["verify", "--only", "oscillator_flat"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "1/1 checks passed" in out

    def test_unknown_filter_is_usage_error(self, capsys):
        assert cli.main(["verify", "--only", "no_such_check"]) == 2

    def test_injected_sign_error_fails(self, capsys, monkeypatch):
        # flip the sign of S_y underneath the catalog: the structure constants
        # lose their cyclic +i pattern and verification must go red
        import statemetric.models as models_mod
        orig = models_mod.spin_operators

        def flipped(s):
            sx, sy, sz = orig(s)
            return sx, -sy, sz

        monkeypatch.setattr(models_mod, "spin_operators", flipped)
        assert cli.main(["verify", "--only", "algebra_validation"]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_verify_loads_no_scipy():
    # numpy and scipy each bundle an OpenBLAS; the package must load only numpy's
    code = ("import sys, statemetric\n"
            "from statemetric import cli\n"
            "assert cli.main(['verify', '--only', 'degeneracy']) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    src = str(Path(cli.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr


class TestModels:
    def test_list(self, capsys):
        assert cli.main(["models", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "spin" in out and "oscillator" in out and "two_spin_dm_xx" in out

    def test_emit_then_validate(self, tmp_path, capsys):
        assert cli.main(["models", "emit", "two_spin_sum", "--initial", "up_up"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 0

    def test_emit_round_trip_byte_identical(self, tmp_path, capsys):
        assert cli.main(["models", "emit", "spin", "--s", "1.5", "--m", "0.5"]) == 0
        text = capsys.readouterr().out
        model = manifest.parse_manifest(manifest.loads(text))
        assert manifest.emit(model) == text

    @pytest.mark.parametrize("flag", ["--J1", "--J2", "--hz"])
    def test_emit_has_no_coupling_options(self, flag, capsys):
        # the couplings pick a path (euler_from_time), not the manifest
        with pytest.raises(SystemExit) as exc:
            cli.main(["models", "emit", "two_spin_dm_xx", flag, "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_emit_requires_model_id(self, capsys):
        assert cli.main(["models", "emit"]) == 1

    def test_emit_defaults_come_from_the_spec(self, capsys):
        # no --s: the spec's spin 1/2; no --gamma: the spec's 1
        assert cli.main(["models", "emit", "spin", "--m", "0.5"]) == 0
        assert capsys.readouterr().out == manifest.emit(spin_model(SpinModelSpec(m=0.5)))
        assert cli.main(["models", "emit", "oscillator"]) == 0
        assert capsys.readouterr().out == manifest.emit(oscillator_model(OscillatorModelSpec()))

    def test_emit_spin_coeffs(self, capsys):
        assert cli.main(["models", "emit", "spin", "--s", "1", "--coeffs",
                         "0.6,0,0.8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # ascending-m coefficients land reversed in the m = s..-s basis
        assert doc["initial_state"][0] == [0.8, 0.0]
        assert doc["initial_state"][2] == [0.6, 0.0]


@pytest.mark.parametrize("command", ["metric", "grid", "curvature"])
def test_non_hermitian_generator_fails_before_its_eigendecomposition(
        command, tmp_path, capsys):
    doc = dense_doc(SPIN)
    doc["generators"]["Sy"][0][0] = [0.0, 1.0]  # imaginary diagonal entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    extra = {"metric": ["--defaults-zero"], "grid": ["--sweep", "theta_1=0:1:2"],
             "curvature": ["--defaults-zero", "--section", "theta_1,theta_2"]}
    assert cli.main([command, str(bad)] + extra[command]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: generator 'Sy' is not Hermitian (defect 2.000e+00 > 1.0e-10)\n"


class TestRepeatedCalls:
    """cli.main builds one parser per process and carries nothing between calls."""

    @staticmethod
    def run(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        return (code, *capsys.readouterr())

    def test_parser_built_once(self, spin_manifest, monkeypatch, capsys):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        for argv in (["models", "list"], ["metric", spin_manifest, "--defaults-zero"],
                     ["validate", spin_manifest], ["models", "list"]):
            assert cli.main(argv) == 0
        assert len(builds) == 1

    def test_command_rebound_after_the_first_call_runs(self, spin_manifest, monkeypatch,
                                                       capsys):
        argv = ["metric", spin_manifest, "--defaults-zero"]
        assert cli.main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_metric", lambda args: seen.append(args.manifest) or 7)
        assert cli.main(argv) == 7
        assert seen == [spin_manifest]

    def test_omitted_option_takes_its_default(self, capsys):
        argv = ["models", "emit", "spin", "--s", "1", "--m", "0"]
        assert cli.main(argv + ["--gamma", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["gamma"] == 2.0
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == manifest.emit(spin_model(SpinModelSpec(s=1, m=0)))

    def test_no_stale_at(self, spin_manifest, capsys):
        at = ["--at", "theta_1=0.2", "--at", "theta_2=1.0", "--at", "theta_3=0.3"]
        assert cli.main(["metric", spin_manifest] + at) == 0
        assert json.loads(capsys.readouterr().out)["point"]["theta_2"] == 1.0
        assert cli.main(["metric", spin_manifest, "--defaults-zero"]) == 0
        point = json.loads(capsys.readouterr().out)["point"]
        assert point == {"theta_1": 0.0, "theta_2": 0.0, "theta_3": 0.0}

    @pytest.mark.parametrize("bad", [
        ["metric", "{manifest}", "--no-such-option"],
        ["grid", "{manifest}", "--format", "xml", "--sweep", "theta_1=0:1:2"],
        ["metric", "{manifest}", "--at", "theta_1"],
    ], ids=["unknown-option", "bad-choice", "malformed-at"])
    def test_usage_error_between_good_calls(self, bad, spin_manifest, capsys):
        good = [["metric", spin_manifest, "--defaults-zero", "--at", "theta_2=0.7"],
                ["grid", spin_manifest, "--sweep", "theta_2=0:1:3", "--format", "csv"]]
        alone = [self.run(argv, capsys) for argv in good]
        first = self.run(good[0], capsys)
        code, out, err = self.run([a.format(manifest=spin_manifest) for a in bad], capsys)
        assert code == 2 and out == "" and err
        assert [first, self.run(good[1], capsys)] == alone
