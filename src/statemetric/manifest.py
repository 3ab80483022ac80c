"""Manifest files: a JSON description of generators, circuit and initial state.

Complex numbers are [re, im] pairs.  ``emit`` is the one writer: it renders
a model's manifest with a fixed key order and shortest round-trip floats,
so emit -> parse -> re-emit is byte-identical.  The bytes are those of
``json.dumps(doc, indent=2)``, but each number block (a generator or the
initial state) fills one row template with ``float.__repr__`` strings
instead of going through the pure-Python encoder, which ``json.dumps`` takes
whenever it indents.  ``float_texts`` renders those strings, formatting each
distinct bit pattern once (a generator block is mostly 0.0); ``cli``'s grid
CSV and JSON go through it too.  ``decode`` reads generator blocks in that
layout in one numpy pass.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .errors import DuplicateParameter, ManifestError
from .liealg import extract_structure_constants
from .manifold import CircuitSpec
from .models import Model


def _pair2c(value, path: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ManifestError(f"{path}: expected a [re, im] number pair, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        raise ManifestError(f"{path}: expected a finite number, got an integer "
                            "beyond the float range") from None


def _require_finite(values, path: str) -> np.ndarray:
    """A number or array of numbers; a NaN or infinity raises ManifestError
    naming the entry (JSON parsing lets NaN, Infinity and 1e400 through)."""
    values = np.asarray(values)
    finite = np.isfinite(values)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0])
        raise ManifestError(f"{path}{''.join(f'[{i}]' for i in bad)}: "
                            f"expected a finite number, got {values[bad]}")
    return values


def require_gamma(gamma) -> float:
    """gamma as a float: a positive finite number whose square is finite too,
    since every metric scales as gamma^2; raises ManifestError naming gamma."""
    if not isinstance(gamma, (int, float)) or isinstance(gamma, bool) or gamma <= 0:
        raise ManifestError("gamma: expected a positive number")
    try:
        gamma = float(gamma)
    except OverflowError:
        raise ManifestError("gamma: expected a finite number, got an integer "
                            "beyond the float range") from None
    _require_finite(gamma, "gamma")
    if not np.isfinite(gamma * gamma):
        raise ManifestError(f"gamma: expected a finite number with a finite square, "
                            f"got {gamma!r}")
    return gamma


def float_texts(values, fmt) -> list:
    """``list(map(fmt, values.ravel().tolist()))``, with ``fmt`` called once
    per distinct bit pattern: -0.0 and 0.0, or two NaN payloads, are
    formatted apart, and repeated values share one text."""
    values = np.ascontiguousarray(values, dtype=float).ravel()
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    texts = np.array(list(map(fmt, values[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def json_floats(values) -> list:
    """Each float as ``json.dumps`` renders it: repr, unless it is not finite."""
    values = np.asarray(values, dtype=float)
    fmt = float.__repr__ if np.all(np.isfinite(values)) else json.dumps
    return float_texts(values, fmt)


def array_template(shape, level: int, slot: str = "%s") -> str:
    """The layout ``json.dumps(indent=2)`` gives a nested list of this shape
    (no zero length) at nesting depth ``level``, ``slot`` for each entry."""
    if not shape:
        return slot
    pad = "\n" + "  " * (level + 1)
    inner = array_template(shape[1:], level + 1, slot)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * level + "]"


def json_object(items, level: int) -> str:
    """A non-empty JSON object of (key, rendered value) items at nesting
    depth ``level``, laid out as ``json.dumps(indent=2)`` lays it out."""
    pad = "\n" + "  " * (level + 1)
    return ("{" + pad + ("," + pad).join(f"{json.dumps(k)}: {v}" for k, v in items)
            + "\n" + "  " * level + "}")


def _pairs(values) -> np.ndarray:
    """Complex array as a float array of [re, im] pairs (last axis)."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1)


def _block(values, level: int) -> str:
    """A complex array as its nested list of [re, im] pairs, laid out as
    ``json.dumps(indent=2)`` lays it out at nesting depth ``level``."""
    pairs = _pairs(values)
    return array_template(pairs.shape, level) % tuple(json_floats(pairs))


def emit(model: Model) -> str:
    """The model's manifest: ``json.dumps(doc, indent=2) + "\\n"`` of the
    document with its seven keys in their fixed order."""
    rep = model.rep
    circuit = json.dumps([list(f) for f in model.circuit.factors], indent=2)
    generators = json_object([(name, _block(G, 2))
                              for name, G in zip(rep.names, rep.generators)], 1)
    return json_object([
        ("name", json.dumps(model.name)),
        ("dimension", json.dumps(int(rep.dim))),
        ("gamma", json.dumps(float(model.gamma))),
        ("generators", generators),
        ("circuit", circuit.replace("\n", "\n  ")),
        ("initial_state", _block(model.initial_state, 1)),
        ("active_dim", json.dumps(rep.active_dim)),
    ], 0) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise ManifestError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be a JSON object")
    return doc


def decode(data: bytes) -> dict:
    """The manifest document in ``data``, UTF-8 encoded JSON.

    Generator blocks in the writer's layout come back as (dim, dim, 2) float
    arrays, read in one numpy pass; any other document is ``loads`` of the
    decoded text, which names what is wrong with it.
    """
    doc = _read_blocks(data) if len(data) >= _FAST_MIN_BYTES else None
    if doc is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ManifestError(f"manifest is not UTF-8 text: {exc}") from None
        doc = loads(text)
    return doc


# The numpy pass.  A generator block is read without json.loads only when
# its bytes are array_template((dim, dim, 2), 2) with one JSON number that
# has a fraction or an exponent in each slot (json.loads reads those as
# floats, and an integer such as -0 as an int); the rest of the document,
# with a placeholder string in each block's place, goes through json.loads.
# Any doubt reads the whole document through loads instead.

# Below this many bytes json.loads reads a manifest faster than the numpy
# pass, whose numpy calls cost ~0.15 ms whatever the size: read and parsed,
# spin s = 5 (20 KB) took 0.44 ms by json.loads and 0.48 ms by the numpy
# pass, spin s = 8 (46 KB) 0.73 ms and 0.65 ms.
_FAST_MIN_BYTES = 32 * 1024
_BLOCK_HEAD = array_template((1, 1, 1), 2).partition("%s")[0].encode()
_PLACEHOLDER = b'"\\u0000%d"'  # JSON escapes NUL, so no other string holds it
_NUMBER_BYTES = b"0123456789+-.eE"
_IS_NUMBER = bytes(c in _NUMBER_BYTES for c in range(256))
# byte classes for JSON number syntax: 0 token boundary, 1 nonzero digit,
# 2 zero, 3 minus, 4 plus, 5 point, 6 exponent, 7 any other byte
_CLASSES = (b",\n", b"123456789", b"0", b"-", b"+", b".", b"eE")
_CLASS = bytes(next((k for k, chars in enumerate(_CLASSES) if c in chars), 7)
               for c in range(256))
# the class pairs (previous << 3 | next) that may meet inside a number token
_NEXT = {0: (1, 2, 3), 1: (0, 1, 2, 5, 6), 2: (0, 1, 2, 5, 6), 3: (1, 2), 4: (1, 2),
         5: (1, 2), 6: (1, 2, 3, 4)}
_VALID_PAIRS = bytes(a << 3 | b for a, nxt in _NEXT.items() for b in nxt)


def _fills_slots(block: bytes, slots: int) -> bool:
    """Whether the block's number bytes form ``slots`` runs, each with a
    space before it and a comma or a newline after it.

    In the writer's layout only a slot has those neighbours, so once the
    bytes between the runs match the layout, each run fills one slot.
    """
    number = np.frombuffer(block.translate(_IS_NUMBER), np.bool_)
    # the block starts with "[" and ends with "]", so runs start at even edges
    edges = np.flatnonzero(number[1:] != number[:-1]) + 1
    if len(edges) != 2 * slots:
        return False
    raw = np.frombuffer(block, np.uint8)
    after = raw[edges[1::2]]
    return bool(np.all(raw[edges[0::2] - 1] == ord(" "))
                and np.all((after == ord(",")) | (after == ord("\n"))))


def _json_floats_ok(text: bytes) -> bool:
    """Whether every token of ``text``, split at commas and newlines, is a
    JSON number with a fraction or an exponent."""
    text = b"," + text + b","
    c = np.frombuffer(text.translate(_CLASS), np.uint8)
    if ((c[:-1] << 3) | c[1:]).tobytes().translate(None, _VALID_PAIRS):
        return False
    # no leading zero: a first digit (after any minus) that is 0 ends the
    # integer part
    first = np.flatnonzero(c[:-1] == 0) + 1
    first += c[first] == 3
    follow = c[first + 1]
    if np.any((c[first] == 2) & ((follow == 1) | (follow == 2))):
        return False
    # per token at most one point and one exponent, the point first, and
    # at least one of them
    marks = np.frombuffer(text.translate(_CLASS, b"0123456789+-"), np.uint8)
    return not np.any((marks[:-1] == marks[1:]) | ((marks[:-1] == 6) & (marks[1:] == 5)))


def _read_blocks(data: bytes):
    """The document in ``data`` with each generator block in the writer's
    layout as a (dim, dim, 2) float array, or None on any doubt."""
    spans = []
    start = data.find(_BLOCK_HEAD)
    while start >= 0:
        # a block holds no quote or brace: it ends at its last bracket
        # before the next key or the end of the generators object
        stop = data.find(b'"', start)
        stop = len(data) if stop < 0 else stop
        brace = data.find(b"}", start, stop)
        end = data.rfind(b"]", start, stop if brace < 0 else brace) + 1
        if end <= start:
            return None
        spans.append((start, end))
        start = data.find(_BLOCK_HEAD, end)
    if not spans:
        return None
    bounds = [0, *(i for span in spans for i in span), len(data)]
    pieces = [data[a:b] for a, b in zip(bounds[0::2], bounds[1::2])]
    if any(b"\\u0000" in piece for piece in pieces):
        return None
    skeleton = pieces[0] + b"".join(_PLACEHOLDER % k + piece
                                    for k, piece in enumerate(pieces[1:]))
    try:
        doc = json.loads(skeleton.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    gens = doc.get("generators") if isinstance(doc, dict) else None
    dim = doc.get("dimension") if isinstance(doc, dict) else None
    if not isinstance(gens, dict) or type(dim) is not int or dim < 1:
        return None
    names = {value: name for name, value in gens.items()
             if isinstance(value, str) and value.startswith("\0")}
    if len(names) != len(spans):  # a placeholder outside the generators
        return None
    blocks = [data[a:b] for a, b in spans]
    # runs first: they refuse a dimension the blocks do not have before the
    # layout, of about a block's size, is built
    if not all(_fills_slots(block, 2 * dim * dim) for block in blocks):
        return None
    layout = array_template((dim, dim, 2), 2, "").encode()
    if any(block.translate(None, _NUMBER_BYTES) != layout for block in blocks):
        return None
    # one line per block, one comma between slots
    text = b"\n".join(block.translate(None, b"[] \n") for block in blocks)
    if not _json_floats_ok(text):
        return None
    # 1e400 reads as inf here as in json.loads; parse_manifest names its entry
    values = np.loadtxt(io.BytesIO(text), delimiter=",", ndmin=2)
    for k, block in enumerate(values.reshape(len(spans), dim, dim, 2)):
        gens[names[f"\0{k}"]] = block
    return doc


def _generator_matrix(rows: list, dim: int, path: str) -> np.ndarray:
    """A dim x dim matrix of [re, im] pairs as a complex array.

    Takes a (dim, dim, 2) float array, as ``decode`` reads a block in the
    writer's layout, as it is.  Converts a nested list in one pass when every
    row is a list and every number a plain int or float; anything else takes
    the per-entry walk, which names the offending entry.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == float and rows.shape == (dim, dim, 2):
        return rows.view(complex)[..., 0]
    try:
        pairs = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if (pairs is not None and pairs.shape == (dim, dim, 2)
            and all(type(row) is list for row in rows)
            and {type(v) for row in rows for pair in row for v in pair} <= {int, float}):
        return pairs.view(complex)[..., 0]
    M = np.empty((dim, dim), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ManifestError(f"{path}[{r}]: expected {dim} entries")
        for c, entry in enumerate(row):
            M[r, c] = _pair2c(entry, f"{path}[{r}][{c}]")
    return M


def parse_manifest(doc: dict) -> Model:
    """Validate a manifest document and build the model it describes.

    Structural problems raise ManifestError with the offending field path;
    algebra-level failures (non-Hermitian generators, non-closure) propagate
    as their own domain errors.
    """
    for key in ("name", "dimension", "generators", "circuit", "initial_state"):
        if key not in doc:
            raise ManifestError(f"missing required field {key!r}")
    name = doc["name"]
    if not isinstance(name, str):
        raise ManifestError("name: expected a string")
    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ManifestError("dimension: expected a positive integer")
    gamma = require_gamma(doc.get("gamma", 1.0))

    gens_doc = doc["generators"]
    if not isinstance(gens_doc, dict) or not gens_doc:
        raise ManifestError("generators: expected a non-empty object of named matrices")
    names, matrices = [], []
    for gname, rows in gens_doc.items():
        path = f"generators.{gname}"
        if not isinstance(rows, (list, np.ndarray)) or len(rows) != dim:
            raise ManifestError(f"{path}: expected {dim} rows")
        names.append(gname)
        matrices.append(_require_finite(_generator_matrix(rows, dim, path), path))

    circuit_doc = doc["circuit"]
    if not isinstance(circuit_doc, list) or not circuit_doc:
        raise ManifestError("circuit: expected a non-empty list of [generator, parameter] pairs")
    factors = []
    for k, pair in enumerate(circuit_doc):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, str) for x in pair)):
            raise ManifestError(f"circuit[{k}]: expected a [generator, parameter] string pair")
        if pair[0] not in names:
            raise ManifestError(f"circuit[{k}]: unknown generator {pair[0]!r}")
        factors.append((pair[0], pair[1]))

    state_doc = doc["initial_state"]
    if not isinstance(state_doc, list) or len(state_doc) != dim:
        raise ManifestError(f"initial_state: expected {dim} amplitudes")
    psi = _require_finite([_pair2c(v, f"initial_state[{k}]")
                           for k, v in enumerate(state_doc)], "initial_state")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ManifestError("initial_state: amplitudes are all zero")

    active_dim = doc.get("active_dim")
    if active_dim is not None and (not isinstance(active_dim, int)
                                   or isinstance(active_dim, bool)
                                   or not 1 <= active_dim <= dim):
        raise ManifestError("active_dim: expected an integer in [1, dimension] or null")

    rep = extract_structure_constants(matrices, names=names, active_dim=active_dim)
    try:
        circuit = CircuitSpec(rep, tuple(factors))
    except DuplicateParameter as exc:
        raise ManifestError(f"circuit[{exc.factor}]: {exc}") from None
    return Model(
        name=name,
        rep=rep,
        circuit=circuit,
        initial_state=psi / norm,
        gamma=gamma,
    )


def read(path) -> dict:
    """The manifest document in the file at ``path``; see ``decode``."""
    with open(path, "rb") as fh:
        return decode(fh.read())


def load_model(path) -> Model:
    return parse_manifest(read(path))
