import copy
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import cli, manifest
from statemetric.errors import ManifestError, NotClosed, NotHermitian, StatemetricError
from statemetric.geometry import metric_stack
from statemetric.liealg import extract_structure_constants
from statemetric.manifold import CircuitSpec
from statemetric.models import (
    MAX_HILBERT_DIM,
    Model,
    OscillatorModelSpec,
    SpinModelSpec,
    oscillator_model,
    spin_model,
)
from statemetric.verify import catalog

from manifest_forms import SPARSE_REFUSALS, dense_doc, dense_text, one_entry_doc

CATALOG = catalog()
SPIN = spin_model(SpinModelSpec(s=1, m=0))
SPIN_TEXT = manifest.emit(SPIN)


@pytest.fixture(scope="module")
def spin_doc():
    return json.loads(SPIN_TEXT)


@pytest.fixture()
def spin_dense():
    """The spin-1 document with its generators in the dense form."""
    return dense_doc(SPIN)


def model_bytes(model):
    rep = model.rep
    return (model.name, rep.names, [G.tobytes() for G in rep.generators],
            rep.constants.tobytes(), model.initial_state.tobytes(), rep.active_dim,
            model.gamma, model.circuit.factors)


def indented(doc) -> str:
    """A document as a manifest file lays it out."""
    return json.dumps(doc, indent=2) + "\n"


class TestRoundTrip:
    def test_emit_parse_reemit_byte_identical(self):
        model = manifest.parse_manifest(manifest.loads(SPIN_TEXT))
        assert manifest.emit(model) == SPIN_TEXT

    def test_oscillator_round_trip_preserves_active_dim(self):
        model = oscillator_model(OscillatorModelSpec(truncation=32))
        text = manifest.emit(model)
        parsed = manifest.parse_manifest(manifest.loads(text))
        assert parsed.rep.active_dim == model.rep.active_dim
        assert manifest.emit(parsed) == text

    def test_parsed_model_metrics_match_original(self, spin_doc):
        original = spin_model(SpinModelSpec(s=1, m=0))
        parsed = manifest.parse_manifest(spin_doc)
        angles = original.circuit.angles({"theta_1": 0.3, "theta_2": 1.1, "theta_3": -0.4})
        diff = metric_stack(parsed, angles[None]) - metric_stack(original, angles[None])
        assert np.max(np.abs(diff)) <= 1e-12

    def test_load_model_from_file(self, tmp_path):
        path = tmp_path / "spin.json"
        path.write_text(SPIN_TEXT, encoding="utf-8")
        model = manifest.load_model(path)
        assert model.rep.names == ("Sz", "Sx", "Sy")

    @pytest.mark.parametrize("model", [
        pytest.param(lambda: spin_model(SpinModelSpec(s=40, m=3)), id="spin40"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(truncation=128)), id="osc128"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(n=1, truncation=256)),
                     id="osc256"),
    ])
    def test_large_emit_parse_emit_byte_identical(self, model):
        text = manifest.emit(model())
        assert manifest.emit(manifest.parse_manifest(manifest.loads(text))) == text

    def test_key_order_fixed(self, spin_doc):
        assert list(spin_doc) == ["name", "dimension", "gamma", "generators",
                                  "circuit", "initial_state", "active_dim"]

    def test_generators_are_sparse_entries(self, spin_doc):
        assert spin_doc["generators"]["Sz"] == {"entries": [[0, 0, 1.0, 0.0],
                                                            [2, 2, -1.0, 0.0]]}
        assert '"entries": [\n        [\n          0,\n          0,\n          1.0,' in SPIN_TEXT


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def reference_doc(model) -> dict:
    """A model's manifest document, built entry by entry."""
    def pairs(values):
        return [[float(np.real(z)), float(np.imag(z))] for z in values]

    def entries(G):
        return {"entries": [[r, c, *pair] for r, row in enumerate(G)
                            for c, pair in enumerate(pairs(row))
                            if bits(pair[0]) + bits(pair[1]) != bytes(16)]}

    rep = model.rep
    return {"name": model.name, "dimension": rep.dim, "gamma": float(model.gamma),
            "generators": {name: entries(G) for name, G in zip(rep.names, rep.generators)},
            "circuit": [[g, p] for g, p in model.circuit.factors],
            "initial_state": pairs(model.initial_state), "active_dim": rep.active_dim}


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308,
                  1.0, -3.0, 2.0**53, 1e16, 0.1]
# a manifest holds finite numbers only; the reader refuses NaN and inf
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def square_matrices(draw):
    d = draw(st.integers(1, 4))
    # signed zeros half the time, so that pairs of +0.0 are skipped
    parts = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), FLOATS),
                          min_size=2 * d * d, max_size=2 * d * d))
    return np.array(parts).view(complex).reshape(d, d)


def through_json(value):
    return json.loads(json.dumps(value))


class TestEntryRule:
    """An entry is written unless both of its parts are +0.0, in row-major
    order, and the sparse object reads back the bits of the dense form."""

    @settings(max_examples=100, deadline=None)
    @given(M=square_matrices())
    def test_sparse_reads_back_the_dense_bits(self, M):
        d = len(M)
        sparse = through_json(manifest._entries(M))
        dense = through_json(np.stack([M.real, M.imag], axis=-1).tolist())
        written = [(r, c) for r in range(d) for c in range(d)
                   if bits(M[r, c].real) + bits(M[r, c].imag) != bytes(16)]
        assert [(r, c) for r, c, *_ in sparse["entries"]] == written
        read = [manifest._generator_matrix(value, d, "G") for value in (sparse, dense)]
        assert read[0].tobytes() == read[1].tobytes() == M.tobytes()

    def test_all_positive_zeros_write_no_entry(self):
        M = np.zeros((3, 3), dtype=complex)
        assert json.dumps(manifest._entries(M), indent=2) == '{\n  "entries": []\n}'
        assert manifest._generator_matrix({"entries": []}, 3, "G").tobytes() == M.tobytes()

    def test_negative_zeros_are_written(self):
        M = np.full((2, 2), complex(-0.0, 0.0))
        assert manifest._entries(M)["entries"] == [[0, 0, -0.0, 0.0], [0, 1, -0.0, 0.0],
                                                   [1, 0, -0.0, 0.0], [1, 1, -0.0, 0.0]]
        assert manifest._generator_matrix(manifest._entries(M), 2, "G").tobytes() == M.tobytes()


class TestWriter:
    @pytest.mark.parametrize("model", [
        pytest.param(lambda: spin_model(SpinModelSpec(s=40, m=3)), id="spin40"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(truncation=128)), id="osc128"),
        # parse_manifest reads gamma as a float, so emit writes one
        pytest.param(lambda: spin_model(SpinModelSpec(s=1, m=0, gamma=2)), id="int-gamma"),
    ] + [pytest.param(lambda key=key: CATALOG[key], id=key) for key in sorted(CATALOG)])
    def test_emit_matches_json_dumps(self, model):
        model = model()
        assert manifest.emit(model) == indented(reference_doc(model))


# a pool small enough that draws repeat, with the bit patterns a float
# renderer must tell apart: signed zeros and NaNs with two payloads
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
POOL = [0.0, -0.0, float("nan"), NAN_PAYLOAD, float("inf"), float("-inf"),
        5e-324, 1e16, 1e-5]


class TestFloatTexts:
    """``cli._float_texts``, which renders the grid CSV and JSON."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 5).flatmap(lambda width: st.lists(
               st.lists(st.sampled_from(POOL), min_size=width, max_size=width),
               min_size=1, max_size=8)),
           fmt=st.sampled_from([float.__repr__, repr, json.dumps]))
    def test_equals_per_entry_map(self, rows, fmt):
        values = np.array(rows).T  # not C-contiguous
        assert cli._float_texts(values, fmt) == list(map(fmt, values.ravel().tolist()))

    def test_formats_each_bit_pattern_once(self):
        values = np.array(POOL * 4).reshape(4, -1)
        assert len({bits(x) for x in values.ravel().tolist()}) == len(POOL)  # NaN payloads kept
        seen = []

        def counting(x):
            seen.append(bits(x))
            return repr(x)

        assert cli._float_texts(values, counting) == list(map(repr, POOL * 4))
        assert sorted(seen) == sorted(bits(x) for x in POOL)

    def test_empty(self):
        assert cli._float_texts(np.empty((0, 3)), repr) == []


class TestParseErrors:
    def _mutate(self, doc, **overrides):
        out = dict(doc)
        out.update(overrides)
        return out

    def test_invalid_json(self):
        with pytest.raises(ManifestError, match="invalid JSON"):
            manifest.loads("{not json")

    @pytest.mark.parametrize("text", ['{"gamma": 1' + "0" * 5000 + "}", "[" * 100_000],
                             ids=["5001-digit-integer", "nested-too-deep"])
    def test_json_the_parser_refuses(self, text):
        # json.loads raises a plain ValueError and a RecursionError here
        with pytest.raises(ManifestError, match="invalid JSON"):
            manifest.loads(text)

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

    def test_entry_path_in_message(self, spin_dense):
        doc = spin_dense
        doc["generators"]["Sx"][0][1] = "oops"
        with pytest.raises(ManifestError, match=r"generators\.Sx\[0\]\[1\]"):
            manifest.parse_manifest(doc)

    # numpy would convert the bools, numeric strings and null to floats
    @pytest.mark.parametrize("entry", [
        True, "0.5", [0.0, 0.0, 0.0], [0.0, False], ["0.5", 0.0], [0.0, None],
    ], ids=["bool", "string", "three_element_pair", "bool_in_pair", "string_in_pair",
            "null_in_pair"])
    def test_bad_generator_entry_names_its_path(self, spin_dense, entry):
        doc = spin_dense
        doc["generators"]["Sx"][1][2] = entry
        with pytest.raises(ManifestError, match=r"generators\.Sx\[1\]\[2\]"):
            manifest.parse_manifest(doc)

    def test_ragged_generator_row(self, spin_dense):
        doc = spin_dense
        doc["generators"]["Sy"][2].append([0.0, 0.0])
        with pytest.raises(ManifestError, match=r"generators\.Sy\[2\]: expected 3 entries"):
            manifest.parse_manifest(doc)

    def test_row_count_mismatch(self, spin_dense):
        doc = spin_dense
        doc["generators"]["Sz"] = doc["generators"]["Sz"][:2]
        with pytest.raises(ManifestError, match=r"generators\.Sz: expected 3 rows"):
            manifest.parse_manifest(doc)

    def test_unknown_circuit_generator(self, spin_doc):
        doc = self._mutate(spin_doc, circuit=[["Sw", "theta_1"]])
        with pytest.raises(ManifestError, match=r"circuit\[0\].*'Sw'"):
            manifest.parse_manifest(doc)

    @pytest.mark.parametrize("where", ["generators", "initial_state"])
    def test_integer_beyond_float_range(self, spin_dense, where):
        doc = spin_dense
        block = doc["generators"]["Sx"][1] if where == "generators" else doc["initial_state"]
        block[2] = [10**400, 0]
        with pytest.raises(ManifestError, match=r"\[2\]: expected a finite number"):
            manifest.parse_manifest(doc)

    def test_duplicate_parameter(self, spin_doc):
        doc = self._mutate(spin_doc, circuit=[["Sz", "a"], ["Sx", "a"]])
        with pytest.raises(ManifestError,
                           match=r"^circuit\[1\]: parameter 'a' drives more than one factor$"):
            manifest.parse_manifest(doc)

    def test_state_length(self, spin_doc):
        doc = self._mutate(spin_doc, initial_state=[[1.0, 0.0]])
        with pytest.raises(ManifestError, match="initial_state"):
            manifest.parse_manifest(doc)

    def test_zero_state(self, spin_doc):
        doc = self._mutate(spin_doc, initial_state=[[0.0, 0.0]] * 3)
        with pytest.raises(ManifestError, match="all zero"):
            manifest.parse_manifest(doc)

    @pytest.mark.parametrize("amplitude,unit", [
        ([1e200, 0.0], 1.0), ([1e-200, 0.0], 1.0), ([5e-324, 0.0], 1.0),
        ([1.5e308, 1.5e308], (1 + 1j) / np.sqrt(2)),
    ], ids=["1e200", "1e-200", "5e-324", "1.5e308-both-parts"])
    def test_state_of_any_finite_scale_is_normalized(self, spin_doc, amplitude, unit):
        # its norm would overflow or underflow; its largest part is divided out first
        doc = self._mutate(spin_doc, initial_state=[amplitude, [0.0, 0.0], [0.0, 0.0]])
        psi = manifest.parse_manifest(doc).initial_state
        assert np.max(np.abs(psi - [unit, 0.0, 0.0])) <= 1e-15

    @pytest.mark.parametrize("name", ["a,b", "c=d", 'e"f', "g\rh", "i\nj"],
                             ids=["comma", "equals", "quote", "cr", "lf"])
    def test_parameter_name_the_cli_cannot_address(self, spin_doc, name):
        doc = self._mutate(spin_doc, circuit=[["Sz", "theta_1"], ["Sx", name]])
        with pytest.raises(ManifestError, match=r"^circuit\[1\]: the CLI cannot address"):
            manifest.parse_manifest(doc)

    def test_state_is_normalized(self, spin_doc):
        doc = self._mutate(spin_doc, initial_state=[[3.0, 0.0], [0.0, 0.0], [0.0, 4.0]])
        psi = manifest.parse_manifest(doc).initial_state
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert np.allclose(psi, [0.6, 0.0, 0.8j])

    def test_bad_active_dim(self, spin_doc):
        with pytest.raises(ManifestError, match="active_dim"):
            manifest.parse_manifest(self._mutate(spin_doc, active_dim=99))

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("inf")],
                                       [float("-inf"), 0.0]], ids=["nan", "inf", "-inf"])
    def test_non_finite_generator_entry(self, spin_dense, entry):
        doc = spin_dense
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
        text = SPIN_TEXT.replace('"gamma": 1.0', f'"gamma": {literal}')
        with pytest.raises(ManifestError, match="gamma"):
            manifest.parse_manifest(manifest.loads(text))


class TestDomainErrorsPropagate:
    def test_non_hermitian_generator(self, spin_dense):
        doc = spin_dense
        doc["generators"]["Sz"][0][1] = [0.5, 0.0]
        with pytest.raises(NotHermitian):
            manifest.parse_manifest(doc)

    def test_non_hermitian_sparse_generator(self, spin_doc):
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sz"]["entries"].append([0, 1, 0.5, 0.0])
        with pytest.raises(NotHermitian):
            manifest.parse_manifest(doc)

    def test_open_algebra(self, spin_doc):
        doc = dict(spin_doc)
        doc["generators"] = {k: v for k, v in spin_doc["generators"].items()
                             if k in ("Sx", "Sy")}
        doc["circuit"] = [["Sx", "theta_1"], ["Sy", "theta_2"]]
        with pytest.raises(NotClosed):
            manifest.parse_manifest(doc)




class TestSparseErrors:
    @pytest.mark.parametrize("sx,message", SPARSE_REFUSALS)
    def test_refusal_names_its_entry(self, spin_doc, sx, message):
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sx"] = copy.deepcopy(sx)
        with pytest.raises(ManifestError, match="^" + message):
            manifest.parse_manifest(doc)


class TestDimensionBound:
    @pytest.mark.parametrize("dim", [MAX_HILBERT_DIM + 1, 10**6, 2**40])
    def test_refused_before_any_generator_is_built(self, dim, monkeypatch):
        monkeypatch.setattr(manifest, "_generator_matrix", None)  # a call fails
        with pytest.raises(ManifestError, match=r"^dimension: expected an integer in "
                                                r"\[1, 1024\]$"):
            manifest.parse_manifest(one_entry_doc(dim))

    def test_sparse_manifest_at_the_bound_loads(self):
        d = MAX_HILBERT_DIM
        doc = one_entry_doc(d)
        doc["generators"]["Z"]["entries"] = [[k, k, float(k), 0.0] for k in range(d)]
        doc["initial_state"] += [[0.0, 0.0]] * (d - 1)
        model = manifest.parse_manifest(manifest.loads(indented(doc)))
        assert model.rep.dim == d
        assert np.array_equal(np.diag(model.rep.generators[0]), np.arange(d))


def rotated_spin(s: float) -> Model:
    """The spin-s model conjugated by a fixed random unitary: no entry of its
    generators is 0.0."""
    model = spin_model(SpinModelSpec(s=s, m=s))
    d = model.rep.dim
    rng = np.random.default_rng(11)
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rep = extract_structure_constants([U @ G @ U.conj().T for G in model.rep.generators],
                                      names=model.rep.names)
    return Model(name="rotated", rep=rep, circuit=CircuitSpec(rep, model.circuit.factors),
                 initial_state=U @ model.initial_state, gamma=model.gamma)


class TestDenseForm:
    """Dense generators, the form older manifests hold, load to the same bits."""

    @pytest.mark.parametrize("model", [
        pytest.param(lambda: spin_model(SpinModelSpec(s=40, m=3)), id="spin40"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(truncation=128)), id="osc128"),
        pytest.param(lambda: rotated_spin(5), id="rotated-spin5"),  # every entry written
    ] + [pytest.param(lambda key=key: CATALOG[key], id=key) for key in sorted(CATALOG)])
    def test_dense_and_sparse_give_the_same_model(self, model):
        model = model()
        sparse = manifest.parse_manifest(manifest.loads(manifest.emit(model)))
        dense = manifest.parse_manifest(manifest.loads(dense_text(model)))
        assert model_bytes(dense) == model_bytes(sparse)
        assert manifest.emit(dense) == manifest.emit(sparse) == manifest.emit(model)

    def test_mixed_forms_load(self, spin_doc):
        doc = copy.deepcopy(spin_doc)
        doc["generators"]["Sx"] = dense_doc(SPIN)["generators"]["Sx"]
        assert isinstance(doc["generators"]["Sx"], list)
        mixed = manifest.parse_manifest(manifest.loads(indented(doc)))
        assert model_bytes(mixed) == model_bytes(manifest.parse_manifest(spin_doc))

    def test_dense_file_loads(self, tmp_path):
        path = tmp_path / "dense.json"
        path.write_text(dense_text(SPIN), encoding="utf-8")
        assert model_bytes(manifest.load_model(path)) == model_bytes(
            manifest.parse_manifest(manifest.loads(SPIN_TEXT)))



# ---------------------------------------------------------------------------
# Reading bytes: a manifest file's dense generators against json.loads and
# numpy's float conversion

DENSE_TEXT = dense_text(SPIN)
DENSE_DOC = json.loads(DENSE_TEXT)
GENERATORS = slice(DENSE_TEXT.index('"generators"'), DENSE_TEXT.index('"circuit"'))
TOKENS = [m.span() for m in re.finditer(r"-?[0-9][0-9.eE+-]*", DENSE_TEXT[GENERATORS])]
# tokens json.loads reads differently from np.loadtxt or float() or refuses
TRICKY = ["+1", "01", "-01", "00.5", "-01.5", "1.", ".5", "-.5", "1.e5", "1E+05", "2.5e-3",
          "0e0", "-0", "-0.0", "-0e-0", "0", "7", "1e400", "-1e400", "1e-400", "5e-324",
          "1" + "0" * 400, "1 2", "1,2", "[1.0]", "1e", "1e+", "--1", "1.2.3", "1e5e5",
          "1e5.5", "-", "", "true", "null", '"0.5"', "NaN", "Infinity", "-Infinity", "1_0",
          "0x1", " 1.0", "1.0 ", "\t1.0", "0.00", "00.0", "0.0e0", "0.0E0", "0.", ".0",
          "1.0000000000000000000000000002", "1.5,2.5", "1.5\n2.5", "1" + "0" * 5000]
# tokens made only of the bytes of 0.0 text, or that json.loads reads as a zero
ZERO_LOOKALIKES = ["0.00", "00.0", "000", "0e0", "0.0e0", "0.0E0", "-0.0", "0.", ".0"]
NUMBER_TEXT = st.text(alphabet="0123456789+-.eE", max_size=6)


def read_bytes(data: bytes) -> dict:
    """``manifest.read`` of a file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_bytes(data)
        return manifest.read(path)


def json_path(data: bytes) -> dict:
    return manifest.loads(data.decode("utf-8"))


def outcome(read, data: bytes):
    """The model a document gives, as bytes, or its error's type and text."""
    try:
        return model_bytes(manifest.parse_manifest(read(data)))
    except StatemetricError as exc:
        return type(exc).__name__, str(exc)


def assert_reads_as_json(data: bytes):
    """The file reads as json.loads reads its text, and every dense block the
    reader accepts holds the bits numpy converts json.loads's numbers to."""
    assert outcome(read_bytes, data) == outcome(json_path, data)
    try:
        doc = read_bytes(data)
    except ManifestError:
        return
    reference = json.loads(data.decode("utf-8"))["generators"]
    for name, block in doc["generators"].items():
        if not isinstance(block, list):
            continue
        try:
            M = manifest._generator_matrix(block, len(block), name)
        except ManifestError:
            continue
        assert M.tobytes() == np.array(reference[name], dtype=float).tobytes()  # signbit too


def with_tokens(tokens: dict, text: str = DENSE_TEXT) -> bytes:
    """The document with the generator tokens at these indices replaced."""
    start = text.index('"generators"')
    spans = [m.span() for m in re.finditer(r"-?[0-9][0-9.eE+-]*",
                                           text[start:text.index('"circuit"')])]
    for index in sorted(tokens, reverse=True):
        a, b = spans[index]
        text = text[:start + a] + tokens[index] + text[start + b:]
    return text.encode()


def with_token(index: int, token: str) -> bytes:
    return with_tokens({index: token})


SPIN3_TEXT = dense_text(spin_model(SpinModelSpec(s=3, m=1)))
SPIN3_SLOTS = 3 * 7 * 7 * 2


def moved(index: int, offset: int) -> bytes:
    """The document with one token moved ``offset`` bytes, over a bracket."""
    start, stop = TOKENS[index]
    text = DENSE_TEXT[GENERATORS]
    token, rest = text[start:stop], text[:start] + text[stop:]
    return (DENSE_TEXT[:GENERATORS.start] + rest[:start + offset] + token
            + rest[start + offset:] + DENSE_TEXT[GENERATORS.stop:]).encode()


def restructured(**changes) -> bytes:
    doc = copy.deepcopy(DENSE_DOC)
    for key, change in changes.items():
        doc[key] = change(doc[key])
    return indented(doc).encode()


class TestByteReader:
    """``manifest.read`` over the bytes of dense manifests, the form the
    package's older writer emitted, with their tokens and layout varied."""

    def test_emitted_blocks_read_as_json(self):
        assert_reads_as_json(DENSE_TEXT.encode())

    @pytest.mark.parametrize("token", ["1E+05", "2.5e-3", "-0.0", "0e0", "-0e-0", "5e-324",
                                       "1e-400", "7", "-0", "12345678901234567891"])
    def test_other_json_floats_read_as_json(self, token):
        assert_reads_as_json(with_token(0, token))

    @pytest.mark.parametrize("token", TRICKY)
    def test_tricky_token_reads_as_json(self, token):
        assert_reads_as_json(with_token(4, token))

    @settings(max_examples=100, deadline=None)
    @given(index=st.integers(0, len(TOKENS) - 1),
           token=st.one_of(st.sampled_from(TRICKY), NUMBER_TEXT, st.floats().map(repr)))
    def test_one_token_reads_as_json(self, index, token):
        assert_reads_as_json(with_token(index, token))

    # slots 0-17 are Sz, 18-35 Sx and 36-53 Sy, each block's slots in order
    @pytest.mark.parametrize("index", [0, 18, 53])
    @pytest.mark.parametrize("token", ZERO_LOOKALIKES)
    def test_zero_lookalike_reads_as_json(self, token, index):
        assert_reads_as_json(with_token(index, token))

    # spin s = 3: slots 0-97 are Sz, 98-195 Sx and 196-293 Sy
    @pytest.mark.parametrize("tokens", [
        pytest.param({2: "1.0", 3: "2.0"}, id="same-length-adjacent"),
        pytest.param({1: "2.0", 5: "1.0", 150: "2.0"}, id="same-length-apart"),
        pytest.param({0: "-3.5"}, id="first-slot"),
        pytest.param({98: "2.5"}, id="first-slot-of-block"),
        pytest.param({195: "-2.5e-3"}, id="last-slot-of-block"),
        pytest.param({293: "1.25"}, id="last-slot"),
        pytest.param({101: "3.0", 102: "-1e-05", 103: "0.5"}, id="adjacent"),
        pytest.param({97: "0.5", 98: "-0.5"}, id="adjacent-across-blocks"),
        pytest.param({100: "1.0000000000000002", 101: "-1.0000000000000002e-05"},
                     id="zeros-inside-a-token"),
        pytest.param({100: "1.0000000000000000000000000002"}, id="long-zero-run"),
    ])
    def test_nonzero_tokens_read_as_json(self, tokens):
        assert_reads_as_json(with_tokens(tokens, SPIN3_TEXT))

    def test_dense_block_reads_as_json(self):
        data = dense_text(rotated_spin(1)).encode()
        assert all(np.all(manifest._generator_matrix(block, 3, "G") != 0.0)
                   for block in json.loads(data)["generators"].values())
        assert_reads_as_json(data)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, SPIN3_SLOTS))
    def test_scattered_tokens_read_as_json(self, seed, count):
        rng = np.random.default_rng(seed)
        slots = rng.choice(SPIN3_SLOTS, count, replace=False)
        values = rng.normal(size=count) * 10.0 ** rng.integers(-6, 6, count)
        tokens = dict(zip(slots.tolist(), map(repr, values.tolist())))
        assert_reads_as_json(with_tokens(tokens, SPIN3_TEXT))

    def test_dimension_the_blocks_cannot_hold(self, monkeypatch):
        # refused by the dimension bound, before any 10^6 x 10^6 matrix is built
        data = restructured(dimension=lambda d: 10**6)
        monkeypatch.setattr(manifest, "_generator_matrix", None)  # a call fails
        assert outcome(read_bytes, data) == outcome(json_path, data) == (
            "ManifestError", "dimension: expected an integer in [1, 1024]")

    @pytest.mark.parametrize("data", [
        pytest.param(restructured(generators=lambda g: {**g, "Sy": g["Sy"][:2]}),
                     id="short-block"),
        pytest.param(restructured(generators=lambda g: {
            **g, "Sy": [*g["Sy"][:2], g["Sy"][2] + [[0.0, 0.0]]]}), id="ragged-row"),
        pytest.param(restructured(generators=lambda g: {**g, "Sy": "\u00000"}),
                     id="placeholder-string"),
        pytest.param(restructured(generators=lambda g: {**g, "Sy": [[[0.5, 0.0]] * 3] * 3}),
                     id="shared-rows"),
        pytest.param(restructured(generators=lambda g: {
            **g, "Sy": [[[[v] for v in pair] for pair in row] for row in g["Sy"]]}),
            id="pairs-split"),
        pytest.param(restructured(dimension=lambda d: d + 1), id="dimension-mismatch"),
        pytest.param(restructured(dimension=float), id="float-dimension"),
        pytest.param(restructured(name=lambda n: "\u0000"), id="nul-name"),
        pytest.param(restructured(circuit=lambda c: c + [{"Q": DENSE_DOC["generators"]["Sz"]}]),
                     id="block-outside-generators"),
        pytest.param(moved(2, -len("[\n          ")), id="before-bracket"),
        pytest.param(moved(3, len("\n        ]")), id="after-bracket"),
        pytest.param(DENSE_TEXT.replace("\n          ", "\n         ", 1).encode(),
                     id="reindented"),
        pytest.param(DENSE_TEXT.replace("\n          ", "\n\t", 1).encode(), id="tab"),
        pytest.param(DENSE_TEXT.replace("\n", "\r\n").encode(), id="crlf"),
        pytest.param(DENSE_TEXT.replace('"Sx": [', '"Sz": [').encode(), id="duplicate-key"),
        pytest.param(DENSE_TEXT.replace("0.0\n", "0.0 \n", 1).encode(), id="trailing-space"),
        pytest.param(DENSE_TEXT.replace('"spin"', '"sp\\u00e9n"').encode(), id="escaped-name"),
        pytest.param(DENSE_TEXT.replace('"spin"', '"sp\u00e9n"').encode(), id="utf8-name"),
        pytest.param(DENSE_TEXT.replace('"spin"', '"sp\\"n"').encode(), id="quote-in-name"),
        pytest.param(json.dumps(DENSE_DOC).encode(), id="compact"),
        pytest.param(DENSE_TEXT.encode()[:-30], id="truncated"),
        pytest.param(b"\xef\xbb\xbf" + DENSE_TEXT.encode(), id="bom"),
        pytest.param(DENSE_TEXT.replace("\n    ]\n  },", "\n  },").encode(), id="unclosed-block"),
        pytest.param(restructured(generators=lambda g: {**g, "Z": [[[0.0, 0.0]] * 3] * 3}),
                     id="zero-block"),
        pytest.param(restructured(generators=lambda g: {
            **g, "Z": [[[0.0, 0.0]] * 4, [[0.0, 0.0]] * 3, [[0.0, 0.0]] * 3]}),
            id="zero-block-ragged"),
    ])
    def test_other_layouts_read_as_json(self, data):
        assert_reads_as_json(data)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        data = SPIN_TEXT.replace('"theta_3"', '"theta\udcff3"').encode("utf-8",
                                                                      "surrogateescape")
        path.write_bytes(data)
        with pytest.raises(ManifestError, match=f"^manifest is not UTF-8 text: .* position "
                                                f"{data.index(0xff)}:"):
            manifest.read(path)
