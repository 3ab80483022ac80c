import copy
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import manifest
from statemetric.errors import ManifestError, NotClosed, NotHermitian, StatemetricError
from statemetric.geometry import metric_stack
from statemetric.liealg import extract_structure_constants
from statemetric.manifold import CircuitSpec
from statemetric.models import (
    Model,
    OscillatorModelSpec,
    SpinModelSpec,
    oscillator_model,
    spin_model,
)
from statemetric.verify import catalog

CATALOG = catalog()
SPIN_TEXT = manifest.emit(spin_model(SpinModelSpec(s=1, m=0)))
SPIN_DOC = json.loads(SPIN_TEXT)


@pytest.fixture(scope="module")
def spin_doc():
    return json.loads(SPIN_TEXT)


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


def reference_doc(model) -> dict:
    """A model's manifest document, built entry by entry."""
    def pairs(values):
        return [[float(np.real(z)), float(np.imag(z))] for z in values]

    rep = model.rep
    return {"name": model.name, "dimension": rep.dim, "gamma": float(model.gamma),
            "generators": {name: [pairs(row) for row in G]
                           for name, G in zip(rep.names, rep.generators)},
            "circuit": [[g, p] for g, p in model.circuit.factors],
            "initial_state": pairs(model.initial_state), "active_dim": rep.active_dim}


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308,
                  1.0, -3.0, 2.0**53, 1e16, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())  # NaN and inf too


@st.composite
def complex_arrays(draw, ndim):
    shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    parts = draw(st.lists(FLOATS, min_size=2 * int(np.prod(shape)),
                          max_size=2 * int(np.prod(shape))))
    return np.array(parts).view(complex).reshape(shape)


class TestWriter:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_complex_blocks_match_json_dumps(self, data):
        # the blocks emit writes: two generators at depth 2, a state at depth 1
        blocks = [(data.draw(complex_arrays(2)), 2) for _ in "AB"]
        blocks.append((data.draw(complex_arrays(1)), 1))
        for values, level in blocks:
            expected = json.dumps(manifest._pairs(values).tolist(), indent=2)
            assert manifest._block(values, level) == expected.replace("\n", "\n" + "  " * level)

    @pytest.mark.parametrize("model", [
        pytest.param(lambda: spin_model(SpinModelSpec(s=40, m=3)), id="spin40"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(truncation=128)), id="osc128"),
        # parse_manifest reads gamma as a float, so emit writes one
        pytest.param(lambda: spin_model(SpinModelSpec(s=1, m=0, gamma=2)), id="int-gamma"),
    ] + [pytest.param(lambda key=key: CATALOG[key], id=key) for key in sorted(CATALOG)])
    def test_emit_matches_json_dumps(self, model):
        model = model()
        assert manifest.emit(model) == indented(reference_doc(model))

    def test_number_blocks_skip_the_python_encoder(self, monkeypatch):
        model = oscillator_model(OscillatorModelSpec(n=1, truncation=256))
        encoded = []
        make_iterencode = json.encoder._make_iterencode

        def counting(markers, default, encoder, indent, floatstr, *args):
            def counted(value, *rest):
                encoded.append(value)
                return floatstr(value, *rest)
            return make_iterencode(markers, default, encoder, indent, counted, *args)

        monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
        json.dumps([[0.5, -0.0]], indent=2)
        assert encoded == [0.5, -0.0]  # the counter sees what the encoder renders
        encoded.clear()
        text = manifest.emit(model)
        assert encoded == []  # no float goes through the pure-Python encoder
        assert len(text) > 9_000_000


# a pool small enough that draws repeat, with the bit patterns a float
# renderer must tell apart: signed zeros and NaNs with two payloads
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
POOL = [0.0, -0.0, float("nan"), NAN_PAYLOAD, float("inf"), float("-inf"),
        5e-324, 1e16, 1e-5]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestFloatTexts:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 5).flatmap(lambda width: st.lists(
               st.lists(st.sampled_from(POOL), min_size=width, max_size=width),
               min_size=1, max_size=8)),
           fmt=st.sampled_from([float.__repr__, repr, json.dumps]))
    def test_equals_per_entry_map(self, rows, fmt):
        values = np.array(rows).T  # not C-contiguous
        assert manifest.float_texts(values, fmt) == list(map(fmt, values.ravel().tolist()))

    def test_formats_each_bit_pattern_once(self):
        values = np.array(POOL * 4).reshape(4, -1)
        assert len({bits(x) for x in values.ravel().tolist()}) == len(POOL)  # NaN payloads kept
        seen = []

        def counting(x):
            seen.append(bits(x))
            return repr(x)

        assert manifest.float_texts(values, counting) == list(map(repr, POOL * 4))
        assert sorted(seen) == sorted(bits(x) for x in POOL)

    def test_empty(self):
        assert manifest.float_texts(np.empty((0, 3)), repr) == []


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

    @pytest.mark.parametrize("where", ["generators", "initial_state"])
    def test_integer_beyond_float_range(self, spin_doc, where):
        doc = copy.deepcopy(spin_doc)
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
        text = SPIN_TEXT.replace('"gamma": 1.0', f'"gamma": {literal}')
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


# ---------------------------------------------------------------------------
# Reading: the numpy pass over generator blocks against json.loads

GENERATORS = slice(SPIN_TEXT.index('"generators"'), SPIN_TEXT.index('"circuit"'))
TOKENS = [m.span() for m in re.finditer(r"-?[0-9][0-9.eE+-]*", SPIN_TEXT[GENERATORS])]
# tokens json.loads reads differently from np.loadtxt or float() or refuses,
# or that the numpy pass leaves to json.loads
TRICKY = ["+1", "01", "-01", "00.5", "-01.5", "1.", ".5", "-.5", "1.e5", "1E+05", "2.5e-3",
          "0e0", "-0", "-0.0", "-0e-0", "0", "7", "1e400", "-1e400", "1e-400", "5e-324",
          "1" + "0" * 400, "1 2", "1,2", "[1.0]", "1e", "1e+", "--1", "1.2.3", "1e5e5",
          "1e5.5", "-", "", "true", "null", '"0.5"', "NaN", "Infinity", "-Infinity", "1_0",
          "0x1", " 1.0", "1.0 ", "\t1.0", "0.00", "00.0", "0.0e0", "0.0E0", "0.", ".0",
          "1.0000000000000000000000000002", "1.5,2.5", "1.5\n2.5", "1" + "0" * 5000]
# tokens made only of the bytes of 0.0 text, or that json.loads reads as a zero
ZERO_LOOKALIKES = ["0.00", "00.0", "000", "0e0", "0.0e0", "0.0E0", "-0.0", "0.", ".0"]
NUMBER_TEXT = st.text(alphabet="0123456789+-.eE", max_size=6)


def forced(read):
    """``read`` with the size gate open, so that small documents take the
    numpy pass."""
    def call(data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(manifest, "_FAST_MIN_BYTES", 0)
            return read(data)
    return call


def json_path(data: bytes) -> dict:
    return manifest.loads(data.decode("utf-8"))


def model_bytes(model):
    rep = model.rep
    return (model.name, rep.names, [G.tobytes() for G in rep.generators],
            rep.constants.tobytes(), model.initial_state.tobytes(), rep.active_dim,
            model.gamma, model.circuit.factors)


def outcome(read, data: bytes):
    """The model a document gives, as bytes, or its error's type and text."""
    try:
        return model_bytes(manifest.parse_manifest(read(data)))
    except StatemetricError as exc:
        return type(exc).__name__, str(exc)


def assert_reads_as_json(data: bytes):
    assert outcome(forced(manifest.decode), data) == outcome(json_path, data)
    try:
        doc = forced(manifest.decode)(data)
    except ManifestError:
        return
    reference = json_path(data)["generators"]
    for name, block in doc["generators"].items():
        if isinstance(block, np.ndarray):  # signbit included
            assert block.tobytes() == np.array(reference[name], dtype=float).tobytes()


def with_tokens(tokens: dict, text: str = SPIN_TEXT) -> bytes:
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


def rotated_spin(s: float) -> Model:
    """The spin-s model conjugated by a fixed random unitary: its generator
    blocks hold no 0.0 in any slot."""
    model = spin_model(SpinModelSpec(s=s, m=s))
    d = model.rep.dim
    rng = np.random.default_rng(11)
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rep = extract_structure_constants([U @ G @ U.conj().T for G in model.rep.generators],
                                      names=model.rep.names)
    return Model(name="rotated", rep=rep, circuit=CircuitSpec(rep, model.circuit.factors),
                 initial_state=U @ model.initial_state, gamma=model.gamma)


SPIN3_TEXT = manifest.emit(spin_model(SpinModelSpec(s=3, m=1)))
SPIN3_SLOTS = 3 * 7 * 7 * 2


def moved(index: int, offset: int) -> bytes:
    """The document with one token moved ``offset`` bytes, over a bracket."""
    start, stop = TOKENS[index]
    text = SPIN_TEXT[GENERATORS]
    token, rest = text[start:stop], text[:start] + text[stop:]
    return (SPIN_TEXT[:GENERATORS.start] + rest[:start + offset] + token
            + rest[start + offset:] + SPIN_TEXT[GENERATORS.stop:]).encode()


def restructured(**changes) -> bytes:
    doc = copy.deepcopy(SPIN_DOC)
    for key, change in changes.items():
        doc[key] = change(doc[key])
    return indented(doc).encode()


class TestByteReader:
    def test_emitted_blocks_take_the_numpy_pass(self):
        doc = forced(manifest.decode)(SPIN_TEXT.encode())
        assert all(isinstance(block, np.ndarray) and block.shape == (3, 3, 2)
                   for block in doc["generators"].values())
        assert_reads_as_json(SPIN_TEXT.encode())

    @pytest.mark.parametrize("token", ["1E+05", "2.5e-3", "-0.0", "0e0", "-0e-0", "5e-324",
                                       "1e-400", "7", "-0", "12345678901234567891"])
    def test_other_json_floats_take_the_numpy_pass(self, token):
        data = with_token(0, token)
        assert isinstance(forced(manifest.decode)(data)["generators"]["Sz"], np.ndarray)
        assert_reads_as_json(data)

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
        data = with_tokens(tokens, SPIN3_TEXT)
        assert all(isinstance(block, np.ndarray)
                   for block in forced(manifest.decode)(data)["generators"].values())
        assert_reads_as_json(data)

    def test_dense_block_reads_as_json(self):
        data = manifest.emit(rotated_spin(1)).encode()
        doc = forced(manifest.decode)(data)
        assert all(isinstance(block, np.ndarray) and np.all(block != 0.0)
                   for block in doc["generators"].values())
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
        # refused before the layout, with a line for each of 2 * 10^12 slots,
        # is built
        monkeypatch.setattr(manifest, "array_template", None)  # a call fails
        assert_reads_as_json(restructured(dimension=lambda d: 10**6))

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
        pytest.param(restructured(circuit=lambda c: c + [{"Q": SPIN_DOC["generators"]["Sz"]}]),
                     id="block-outside-generators"),
        pytest.param(moved(2, -len("[\n          ")), id="before-bracket"),
        pytest.param(moved(3, len("\n        ]")), id="after-bracket"),
        pytest.param(SPIN_TEXT.replace("\n          ", "\n         ", 1).encode(),
                     id="reindented"),
        pytest.param(SPIN_TEXT.replace("\n          ", "\n\t", 1).encode(), id="tab"),
        pytest.param(SPIN_TEXT.replace("\n", "\r\n").encode(), id="crlf"),
        pytest.param(SPIN_TEXT.replace('"Sx": [', '"Sz": [').encode(), id="duplicate-key"),
        pytest.param(SPIN_TEXT.replace("0.0\n", "0.0 \n", 1).encode(), id="trailing-space"),
        pytest.param(SPIN_TEXT.replace('"spin"', '"sp\\u00e9n"').encode(), id="escaped-name"),
        pytest.param(SPIN_TEXT.replace('"spin"', '"sp\u00e9n"').encode(), id="utf8-name"),
        pytest.param(SPIN_TEXT.replace('"spin"', '"sp\\"n"').encode(), id="quote-in-name"),
        pytest.param(json.dumps(SPIN_DOC).encode(), id="compact"),
        pytest.param(SPIN_TEXT.encode()[:-30], id="truncated"),
        pytest.param(b"\xef\xbb\xbf" + SPIN_TEXT.encode(), id="bom"),
        pytest.param(SPIN_TEXT.replace("\n    ]\n  },", "\n  },").encode(), id="unclosed-block"),
        pytest.param(restructured(generators=lambda g: {**g, "Z": [[[0.0, 0.0]] * 3] * 3}),
                     id="zero-block"),
        pytest.param(restructured(generators=lambda g: {
            **g, "Z": [[[0.0, 0.0]] * 4, [[0.0, 0.0]] * 3, [[0.0, 0.0]] * 3]}),
            id="zero-block-ragged"),
    ])
    def test_other_layouts_read_as_json(self, data):
        assert_reads_as_json(data)

    def test_bytes_that_are_not_utf8(self):
        # after the blocks, so the position counts the blocks' bytes
        data = SPIN_TEXT.replace('"theta_3"', '"theta\udcff3"').encode("utf-8",
                                                                      "surrogateescape")
        for read in (forced(manifest.decode), manifest.decode):
            with pytest.raises(ManifestError, match=f"not UTF-8 text: .* position "
                                                    f"{data.index(0xff)}:"):
                read(data)

    @pytest.mark.parametrize("model", [
        pytest.param(lambda: spin_model(SpinModelSpec(s=20, m=3)), id="spin20"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(n=1, truncation=64)),
                     id="osc64"),
        pytest.param(lambda: oscillator_model(OscillatorModelSpec(n=1, truncation=128)),
                     id="osc128"),
        pytest.param(lambda: rotated_spin(5), id="rotated-spin5"),  # 31 KB, dense
    ])
    def test_same_model_on_both_sides_of_the_gate(self, model, tmp_path, monkeypatch):
        data = manifest.emit(model()).encode()
        assert len(data) > manifest._FAST_MIN_BYTES
        path = tmp_path / "m.json"
        path.write_bytes(data)
        fast = manifest.load_model(path)
        assert all(isinstance(block, np.ndarray)
                   for block in manifest.read(path)["generators"].values())
        monkeypatch.setattr(manifest, "_FAST_MIN_BYTES", len(data) + 1)
        slow = manifest.load_model(path)
        assert not any(isinstance(block, np.ndarray)
                       for block in manifest.read(path)["generators"].values())
        assert model_bytes(fast) == model_bytes(slow)
