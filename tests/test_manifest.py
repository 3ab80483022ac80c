import json

import numpy as np
import pytest

from statemetric import manifest
from statemetric.errors import ManifestError, NotClosed, NotHermitian
from statemetric.geometry import metric_at
from statemetric.models import (
    OscillatorModelSpec,
    SpinModelSpec,
    oscillator_model,
    spin_model,
)


@pytest.fixture(scope="module")
def spin_doc():
    return manifest.model_to_manifest(spin_model(SpinModelSpec(s=1, m=0)))


class TestRoundTrip:
    def test_emit_parse_reemit_byte_identical(self, spin_doc):
        text = manifest.dumps(spin_doc)
        model = manifest.parse_manifest(manifest.loads(text))
        again = manifest.dumps(manifest.model_to_manifest(model))
        assert again == text

    def test_oscillator_round_trip_preserves_active_dim(self):
        model = oscillator_model(OscillatorModelSpec(truncation=32))
        text = manifest.dumps(manifest.model_to_manifest(model))
        parsed = manifest.parse_manifest(manifest.loads(text))
        assert parsed.rep.active_dim == model.rep.active_dim
        again = manifest.dumps(manifest.model_to_manifest(parsed))
        assert again == text

    def test_parsed_model_metrics_match_original(self, spin_doc):
        original = spin_model(SpinModelSpec(s=1, m=0))
        parsed = manifest.parse_manifest(spin_doc)
        pt = {"theta_1": 0.3, "theta_2": 1.1, "theta_3": -0.4}
        assert np.max(np.abs(metric_at(parsed, pt).g - metric_at(original, pt).g)) <= 1e-12

    def test_load_model_from_file(self, tmp_path, spin_doc):
        path = tmp_path / "spin.json"
        path.write_text(manifest.dumps(spin_doc), encoding="utf-8")
        model = manifest.load_model(path)
        assert model.rep.names == ("Sz", "Sx", "Sy")

    @pytest.mark.parametrize("model", [
        pytest.param(lambda: spin_model(SpinModelSpec(s=40, m=3)), id="spin40"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(truncation=128)), id="osc128"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(n=1, truncation=256)),
                     id="osc256"),
    ])
    def test_large_emit_parse_emit_byte_identical(self, model):
        # dumps is a fixed function of the document, so equal compact
        # encodings (which keep -0.0 and int/float apart) mean equal emits
        model = model()
        doc = manifest.model_to_manifest(model)
        parsed = manifest.parse_manifest(manifest.loads(json.dumps(doc)))
        assert json.dumps(manifest.model_to_manifest(parsed)) == json.dumps(doc)
        if model.rep.dim <= 128:  # the per-entry loop is slow at d = 256
            # per-entry rendering, the reference for the vectorized emitter
            def pairs(values):
                return [[float(np.real(z)), float(np.imag(z))] for z in values]

            reference = dict(doc)
            reference["generators"] = {
                name: [pairs(row) for row in G]
                for name, G in zip(model.rep.names, model.rep.generators)}
            reference["initial_state"] = pairs(model.initial_state)
            assert json.dumps(reference) == json.dumps(doc)

    def test_key_order_fixed(self, spin_doc):
        assert list(spin_doc) == ["name", "dimension", "gamma", "generators",
                                  "circuit", "initial_state", "active_dim"]


class TestParseErrors:
    def _mutate(self, doc, **overrides):
        out = dict(doc)
        out.update(overrides)
        return out

    def test_invalid_json(self):
        with pytest.raises(ManifestError, match="invalid JSON"):
            manifest.loads("{not json")

    def test_non_object_root(self):
        with pytest.raises(ManifestError, match="root"):
            manifest.loads("[1, 2]")

    def test_missing_field(self, spin_doc):
        doc = {k: v for k, v in spin_doc.items() if k != "circuit"}
        with pytest.raises(ManifestError, match="'circuit'"):
            manifest.parse_manifest(doc)

    def test_bad_dimension(self, spin_doc):
        with pytest.raises(ManifestError, match="dimension"):
            manifest.parse_manifest(self._mutate(spin_doc, dimension="3"))

    def test_bad_gamma(self, spin_doc):
        with pytest.raises(ManifestError, match="gamma"):
            manifest.parse_manifest(self._mutate(spin_doc, gamma=-1.0))

    def test_entry_path_in_message(self, spin_doc):
        import copy
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sx"][0][1] = "oops"
        with pytest.raises(ManifestError, match=r"generators\.Sx\[0\]\[1\]"):
            manifest.parse_manifest(doc)

    # numpy would convert the bools, numeric strings and null to floats
    @pytest.mark.parametrize("entry", [
        True, "0.5", [0.0, 0.0, 0.0], [0.0, False], ["0.5", 0.0], [0.0, None],
    ], ids=["bool", "string", "three_element_pair", "bool_in_pair", "string_in_pair",
            "null_in_pair"])
    def test_bad_generator_entry_names_its_path(self, spin_doc, entry):
        import copy
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sx"][1][2] = entry
        with pytest.raises(ManifestError, match=r"generators\.Sx\[1\]\[2\]"):
            manifest.parse_manifest(doc)

    def test_ragged_generator_row(self, spin_doc):
        import copy
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sy"][2].append([0.0, 0.0])
        with pytest.raises(ManifestError, match=r"generators\.Sy\[2\]: expected 3 entries"):
            manifest.parse_manifest(doc)

    def test_row_count_mismatch(self, spin_doc):
        import copy
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sz"] = doc["generators"]["Sz"][:2]
        with pytest.raises(ManifestError, match=r"generators\.Sz: expected 3 rows"):
            manifest.parse_manifest(doc)

    def test_unknown_circuit_generator(self, spin_doc):
        doc = self._mutate(spin_doc, circuit=[["Sw", "theta_1"]])
        with pytest.raises(ManifestError, match=r"circuit\[0\].*'Sw'"):
            manifest.parse_manifest(doc)

    def test_duplicate_parameter(self, spin_doc):
        doc = self._mutate(spin_doc, circuit=[["Sz", "a"], ["Sx", "a"]])
        with pytest.raises(ManifestError, match="more than one factor"):
            manifest.parse_manifest(doc)

    def test_state_length(self, spin_doc):
        doc = self._mutate(spin_doc, initial_state=[[1.0, 0.0]])
        with pytest.raises(ManifestError, match="initial_state"):
            manifest.parse_manifest(doc)

    def test_zero_state(self, spin_doc):
        doc = self._mutate(spin_doc, initial_state=[[0.0, 0.0]] * 3)
        with pytest.raises(ManifestError, match="all zero"):
            manifest.parse_manifest(doc)

    def test_bad_active_dim(self, spin_doc):
        with pytest.raises(ManifestError, match="active_dim"):
            manifest.parse_manifest(self._mutate(spin_doc, active_dim=99))

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("inf")],
                                       [float("-inf"), 0.0]], ids=["nan", "inf", "-inf"])
    def test_non_finite_generator_entry(self, spin_doc, entry):
        import copy
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sx"][1][2] = entry
        with pytest.raises(ManifestError, match=r"generators\.Sx\[1\]\[2\]: expected a finite"):
            manifest.parse_manifest(doc)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma(self, spin_doc, gamma):
        with pytest.raises(ManifestError, match="gamma"):
            manifest.parse_manifest(self._mutate(spin_doc, gamma=gamma))

    @pytest.mark.parametrize("gamma", [1.4e154, 1e200, 10**400],
                             ids=["1.4e154", "1e200", "int-1e400"])
    def test_gamma_with_overflowing_square(self, spin_doc, gamma):
        # every metric scales as gamma^2
        with pytest.raises(ManifestError, match="gamma: expected a finite number"):
            manifest.parse_manifest(self._mutate(spin_doc, gamma=gamma))

    def test_largest_gamma_accepted(self, spin_doc):
        model = manifest.parse_manifest(self._mutate(spin_doc, gamma=1e154))
        assert model.gamma == 1e154 and np.isfinite(model.gamma**2)

    def test_non_finite_state(self, spin_doc):
        state = [[1.0, 0.0], [float("nan"), 0.0], [0.0, 0.0]]
        with pytest.raises(ManifestError, match=r"initial_state\[1\]: expected a finite"):
            manifest.parse_manifest(self._mutate(spin_doc, initial_state=state))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    def test_non_finite_json_literals(self, spin_doc, literal):
        # the json module reads all three as floats
        text = manifest.dumps(spin_doc).replace('"gamma": 1.0', f'"gamma": {literal}')
        with pytest.raises(ManifestError, match="gamma"):
            manifest.parse_manifest(manifest.loads(text))


class TestDomainErrorsPropagate:
    def test_non_hermitian_generator(self, spin_doc):
        import copy
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sz"][0][1] = [0.5, 0.0]
        with pytest.raises(NotHermitian):
            manifest.parse_manifest(doc)

    def test_open_algebra(self, spin_doc):
        doc = dict(spin_doc)
        doc["generators"] = {k: v for k, v in spin_doc["generators"].items()
                             if k in ("Sx", "Sy")}
        doc["circuit"] = [["Sx", "theta_1"], ["Sy", "theta_2"]]
        with pytest.raises(NotClosed):
            manifest.parse_manifest(doc)
