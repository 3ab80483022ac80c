"""Manifest files: a JSON description of generators, circuit and initial state.

Complex numbers are [re, im] pairs.  A generator is a sparse object,
``{"entries": [[row, col, re, im], ...]}``, its entries in row-major order;
an entry is written unless both parts have the bit pattern of +0.0, so -0.0
survives.  ``emit`` is the one writer: ``json.dumps(doc, indent=2)`` of the
model's document with its keys in a fixed order, so emit -> parse -> re-emit
is byte-identical.  ``read`` and ``loads`` read a manifest with
``json.loads``; ``parse_manifest`` also accepts a generator as a dense
nested list of ``dimension`` rows of pairs, the form older manifests hold,
and reads it entry by entry.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DuplicateParameter, ManifestError
from .liealg import extract_structure_constants
from .manifold import CircuitSpec
from .models import MAX_HILBERT_DIM, Model, normalized


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


def _entries(G) -> dict:
    """A generator as its sparse object: [row, col, re, im] for each entry,
    in row-major order, unless both parts have the bit pattern of +0.0."""
    parts = np.stack([G.real, G.imag], axis=-1)
    rows, cols = np.nonzero(parts.view(np.int64).any(axis=-1))
    return {"entries": [[r, c, *z] for r, c, z in zip(rows.tolist(), cols.tolist(),
                                                      parts[rows, cols].tolist())]}


def emit(model: Model) -> str:
    """The model's manifest: ``json.dumps(doc, indent=2) + "\\n"`` of the
    document with its seven keys in their fixed order."""
    rep = model.rep
    psi = np.asarray(model.initial_state, dtype=complex)
    return json.dumps({
        "name": model.name,
        "dimension": int(rep.dim),
        "gamma": float(model.gamma),
        "generators": {name: _entries(G) for name, G in zip(rep.names, rep.generators)},
        "circuit": [list(f) for f in model.circuit.factors],
        "initial_state": np.stack([psi.real, psi.imag], axis=-1).tolist(),
        "active_dim": rep.active_dim,
    }, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise ManifestError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be a JSON object")
    return doc


def read(path) -> dict:
    """The manifest document in the file at ``path``: ``loads`` of its
    UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not UTF-8 text: {exc}") from None
    return loads(text)


def _sparse_matrix(value: dict, dim: int, path: str) -> np.ndarray:
    """The dim x dim matrix of a generator's sparse object; every entry it
    does not list is 0.0."""
    entries = value.get("entries")
    if list(value) != ["entries"] or not isinstance(entries, list):
        raise ManifestError(f'{path}: expected {{"entries": [[row, col, re, im], ...]}}')
    path += ".entries"
    found = {}  # flat index -> value, in entry order
    for k, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != 4:
            raise ManifestError(f"{path}[{k}]: expected [row, col, re, im], got {entry!r}")
        r, c, re, im = entry
        if not (type(r) is int and type(c) is int and 0 <= r < dim and 0 <= c < dim):
            raise ManifestError(f"{path}[{k}]: expected row and col integers in "
                                f"[0, {dim}), got {r!r}, {c!r}")
        if r * dim + c in found:
            raise ManifestError(f"{path}[{k}]: repeats entry ({r}, {c})")
        found[r * dim + c] = _pair2c([re, im], f"{path}[{k}]")
    M = np.zeros(dim * dim, dtype=complex)
    M[list(found)] = _require_finite(np.array(list(found.values()), dtype=complex), path)
    return M.reshape(dim, dim)


def _generator_matrix(value, dim: int, path: str) -> np.ndarray:
    """A generator's dim x dim complex matrix, from its sparse object or from
    a nested list of ``dim`` rows of [re, im] pairs, read entry by entry so
    that an error names the offending entry."""
    if isinstance(value, dict):
        return _sparse_matrix(value, dim, path)
    if not isinstance(value, list) or len(value) != dim:
        raise ManifestError(f'{path}: expected {dim} rows or {{"entries": [...]}}')
    M = np.empty((dim, dim), dtype=complex)
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ManifestError(f"{path}[{r}]: expected {dim} entries")
        for c, entry in enumerate(row):
            M[r, c] = _pair2c(entry, f"{path}[{r}][{c}]")
    return _require_finite(M, path)


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
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_HILBERT_DIM:
        # before any d x d allocation: a few sparse bytes can declare any size
        raise ManifestError(f"dimension: expected an integer in [1, {MAX_HILBERT_DIM}]")
    gamma = require_gamma(doc.get("gamma", 1.0))

    gens_doc = doc["generators"]
    if not isinstance(gens_doc, dict) or not gens_doc:
        raise ManifestError("generators: expected a non-empty object of named matrices")
    names, matrices = [], []
    for gname, value in gens_doc.items():
        names.append(gname)
        matrices.append(_generator_matrix(value, dim, f"generators.{gname}"))

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
        if any(c in pair[1] for c in ',="\r\n'):  # --at, --section or a CSV header
            raise ManifestError(f"circuit[{k}]: the CLI cannot address parameter {pair[1]!r}")
        factors.append((pair[0], pair[1]))

    state_doc = doc["initial_state"]
    if not isinstance(state_doc, list) or len(state_doc) != dim:
        raise ManifestError(f"initial_state: expected {dim} amplitudes")
    psi = _require_finite([_pair2c(v, f"initial_state[{k}]")
                           for k, v in enumerate(state_doc)], "initial_state")
    psi, norm = normalized(psi)  # any finite scale
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
        initial_state=psi,
        gamma=gamma,
    )


def load_model(path) -> Model:
    return parse_manifest(read(path))
