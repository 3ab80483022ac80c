"""Manifest files: a JSON description of generators, circuit and initial state.

Complex numbers are [re, im] pairs; emission is deterministic (fixed key
order, shortest round-trip float rendering) so emit -> parse -> re-emit is
byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg
from .errors import ManifestError
from .liealg import extract_structure_constants
from .manifold import CircuitSpec
from .models import Model


def _pair2c(value, path: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ManifestError(f"{path}: expected a [re, im] number pair, got {value!r}")
    return complex(value[0], value[1])


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


def _c2pairs(values) -> list:
    """Complex array as nested [re, im] lists of Python floats."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def model_to_manifest(model: Model) -> dict:
    """Serializable manifest dict for a model, fixed key order."""
    return {
        "name": model.name,
        "dimension": int(model.rep.dim),
        "gamma": float(model.gamma),
        "generators": {
            name: _c2pairs(G) for name, G in zip(model.rep.names, model.rep.generators)
        },
        "circuit": [[g, p] for g, p in model.circuit.factors],
        "initial_state": _c2pairs(model.initial_state),
        "active_dim": model.rep.active_dim,
    }


def dumps(manifest: dict) -> str:
    return json.dumps(manifest, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be a JSON object")
    return doc


def _generator_matrix(rows: list, dim: int, path: str) -> np.ndarray:
    """A dim x dim matrix of [re, im] pairs as a complex array.

    Converts in one pass when every row is a list and every number a plain
    int or float; anything else takes the per-entry walk, which names the
    offending entry.
    """
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
        if not isinstance(rows, list) or len(rows) != dim:
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
    seen = set()
    for k, (_g, p) in enumerate(factors):
        if p in seen:
            raise ManifestError(f"circuit[{k}]: parameter {p!r} drives more than one factor")
        seen.add(p)

    state_doc = doc["initial_state"]
    if not isinstance(state_doc, list) or len(state_doc) != dim:
        raise ManifestError(f"initial_state: expected {dim} amplitudes")
    psi = _require_finite([_pair2c(v, f"initial_state[{k}]")
                           for k, v in enumerate(state_doc)], "initial_state")
    if np.linalg.norm(psi) == 0:
        raise ManifestError("initial_state: amplitudes are all zero")

    active_dim = doc.get("active_dim")
    if active_dim is not None and (not isinstance(active_dim, int)
                                   or isinstance(active_dim, bool)
                                   or not 1 <= active_dim <= dim):
        raise ManifestError("active_dim: expected an integer in [1, dimension] or null")

    rep = extract_structure_constants(matrices, names=names, active_dim=active_dim)
    circuit = CircuitSpec(rep, tuple(factors))
    return Model(
        name=name,
        rep=rep,
        circuit=circuit,
        initial_state=linalg.state_vector(psi),
        gamma=gamma,
    )


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        return parse_manifest(loads(fh.read()))
