import json

import numpy as np
import pytest

from statemetric import cli, geometry, manifest
from statemetric.geometry import GridSpec
from statemetric.models import (
    OscillatorModelSpec,
    SpinModelSpec,
    oscillator_model,
    spin_model,
)
from statemetric.verify import catalog


@pytest.fixture()
def spin_manifest(tmp_path):
    doc = manifest.model_to_manifest(spin_model(SpinModelSpec(s=1, m=0)))
    path = tmp_path / "spin.json"
    path.write_text(manifest.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def osc_manifest(tmp_path):
    doc = manifest.model_to_manifest(oscillator_model(OscillatorModelSpec()))
    path = tmp_path / "osc.json"
    path.write_text(manifest.dumps(doc), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_good_manifest(self, spin_manifest, capsys):
        assert cli.main(["validate", spin_manifest]) == 0
        out = capsys.readouterr().out
        assert "detected kind: so3" in out
        assert "FAIL" not in out

    def test_oscillator_kind(self, osc_manifest, capsys):
        assert cli.main(["validate", osc_manifest]) == 0
        assert "heisenberg(1)" in capsys.readouterr().out

    def test_non_hermitian_is_domain_failure(self, tmp_path, spin_manifest, capsys):
        doc = json.loads(open(spin_manifest).read())
        doc["generators"]["Sy"][0][0] = [0.0, 1.0]  # imaginary diagonal entry
        bad = tmp_path / "bad.json"
        bad.write_text(manifest.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", str(bad)]) == 1
        assert "'Sy'" in capsys.readouterr().out

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

    def test_unbound_parameter_is_usage_error(self, spin_manifest, capsys):
        assert cli.main(["metric", spin_manifest, "--at", "theta_1=0.2"]) == 2

    def test_unknown_parameter(self, spin_manifest, capsys):
        assert cli.main(["metric", spin_manifest, "--at", "bogus=1",
                         "--defaults-zero"]) == 2

    def test_malformed_at(self, spin_manifest, capsys):
        assert cli.main(["metric", spin_manifest, "--at", "theta_1"]) == 2

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_json_non_finite_equals_json_dumps(self, tmp_path, capsys):
        # an infinite gamma is accepted on load; the metric holds inf and nan
        self._check_json(spin_model(SpinModelSpec(s=1, m=0, gamma=np.inf)), tmp_path, capsys)

    @staticmethod
    def _check_json(model, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(manifest.dumps(manifest.model_to_manifest(model)), encoding="utf-8")
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
], ids=["metric-nan", "metric-inf", "grid-inf", "curvature-nan", "validate-dir",
        "metric-dir", "grid-unknown-sweep"])
def test_bad_input_is_usage_error(argv, spin_manifest, tmp_path, capsys):
    argv = [a.format(manifest=spin_manifest, dir=tmp_path) for a in argv]
    assert cli.main(argv) == 2  # an exception escaping main fails the test too
    assert capsys.readouterr().err.startswith("error: ")


class TestCurvature:
    def test_sphere_classification(self, spin_manifest, capsys):
        code = cli.main(["curvature", spin_manifest, "--defaults-zero",
                        "--at", "theta_2=1.0", "--section", "theta_1,theta_2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "sphere"
        assert doc["gaussian_curvature"] == pytest.approx(1.0, abs=1e-4)
        assert doc["radius"] == pytest.approx(1.0, abs=1e-4)

    def test_flat_classification(self, osc_manifest, capsys):
        code = cli.main(["curvature", osc_manifest, "--defaults-zero",
                        "--section", "theta,phi"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "flat"
        assert doc["radius"] is None

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
        assert manifest.dumps(manifest.model_to_manifest(model)) == text

    def test_emit_requires_model_id(self, capsys):
        assert cli.main(["models", "emit"]) == 1

    def test_emit_spin_coeffs(self, capsys):
        assert cli.main(["models", "emit", "spin", "--s", "1", "--coeffs",
                         "0.6,0,0.8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # ascending-m coefficients land reversed in the m = s..-s basis
        assert doc["initial_state"][0] == [0.8, 0.0]
        assert doc["initial_state"][2] == [0.6, 0.0]
