"""Manifest documents the tests share.

``dense_doc`` and ``dense_text`` give the dense generator form, which
manifests held before the sparse one: each generator a nested list of
``dimension`` rows of [re, im] pairs.  ``parse_manifest`` still reads it, and
the tests that cover that reader build their documents here.
``one_entry_doc`` is a small sparse manifest of any declared dimension.
``SPARSE_REFUSALS`` are sparse ``generators.Sx`` values of the spin-1
manifest that the reader refuses, each with the start of its message.
"""

import copy
import json

import numpy as np
import pytest

from statemetric import manifest
from statemetric.models import SpinModelSpec, spin_model


def dense_doc(model) -> dict:
    """The model's manifest document with every generator in the dense form."""
    doc = json.loads(manifest.emit(model))
    doc["generators"] = {name: np.stack([G.real, G.imag], axis=-1).tolist()
                         for name, G in zip(model.rep.names, model.rep.generators)}
    return doc


def dense_text(model) -> str:
    """The model's dense manifest, laid out as ``json.dumps(indent=2)``."""
    return json.dumps(dense_doc(model), indent=2) + "\n"


def one_entry_doc(dim) -> dict:
    """A manifest of one generator with one entry: a few hundred bytes,
    whatever ``dimension`` it declares."""
    return {"name": "diag", "dimension": dim, "gamma": 1.0,
            "generators": {"Z": {"entries": [[0, 0, 1.0, 0.0]]}},
            "circuit": [["Z", "t"]], "initial_state": [[1.0, 0.0]], "active_dim": None}


# [[0, 1, h, 0.0], [1, 0, h, 0.0], [1, 2, h, 0.0], [2, 1, h, 0.0]], h = 1/sqrt(2)
SX = json.loads(manifest.emit(spin_model(SpinModelSpec(s=1, m=0))))["generators"]["Sx"]


def with_entry(k: int, entry) -> dict:
    """Sx with entry ``k`` replaced, or appended when ``k`` is past the end."""
    entries = copy.deepcopy(SX["entries"])
    entries[k:k + 1] = [entry]
    return {"entries": entries}


OBJECT = r'generators\.Sx: expected \{"entries": \[\[row, col, re, im\], \.\.\.\]\}'
ENTRY = r"generators\.Sx\.entries\[1\]: expected \[row, col, re, im\], got "
INDEX = r"generators\.Sx\.entries\[1\]: expected row and col integers in \[0, 3\), got "
PAIR = r"generators\.Sx\.entries\[1\]: expected a \[re, im\] number pair"
FINITE = r"generators\.Sx\.entries\[1\]: expected a finite number"
H = SX["entries"][1][2]

SPARSE_REFUSALS = [
    pytest.param({"entrys": SX["entries"]}, OBJECT, id="misspelt-key"),
    pytest.param({**SX, "format": "sparse"}, OBJECT, id="extra-key"),
    pytest.param({}, OBJECT, id="no-key"),
    pytest.param({"entries": {"0": [0, 1, H, 0.0]}}, OBJECT, id="entries-object"),
    pytest.param({"entries": None}, OBJECT, id="entries-null"),
    pytest.param(with_entry(1, "1, 0"), ENTRY, id="string-entry"),
    pytest.param(with_entry(1, [1, 0, H]), ENTRY, id="entry-of-3"),
    pytest.param(with_entry(1, [1, 0, H, 0.0, 0.0]), ENTRY, id="entry-of-5"),
    pytest.param(with_entry(1, {"row": 1}), ENTRY, id="object-entry"),
    pytest.param(with_entry(1, [True, 0, H, 0.0]), INDEX, id="bool-row"),
    pytest.param(with_entry(1, [1, False, H, 0.0]), INDEX, id="bool-col"),
    pytest.param(with_entry(1, [1.0, 0, H, 0.0]), INDEX, id="float-row"),
    pytest.param(with_entry(1, [1, "0", H, 0.0]), INDEX, id="string-col"),
    pytest.param(with_entry(1, [None, 0, H, 0.0]), INDEX, id="null-row"),
    pytest.param(with_entry(1, [-1, 0, H, 0.0]), INDEX, id="negative-row"),
    pytest.param(with_entry(1, [1, -3, H, 0.0]), INDEX, id="negative-col"),
    pytest.param(with_entry(1, [3, 0, H, 0.0]), INDEX, id="row-equal-to-dimension"),
    pytest.param(with_entry(1, [1, 3, H, 0.0]), INDEX, id="col-equal-to-dimension"),
    pytest.param(with_entry(1, [1, 10**400, H, 0.0]), INDEX, id="huge-col"),
    pytest.param(with_entry(1, [0, 1, H, 0.0]),
                 r"generators\.Sx\.entries\[1\]: repeats entry \(0, 1\)", id="repeated"),
    pytest.param(with_entry(4, [2, 1, -H, 0.0]),
                 r"generators\.Sx\.entries\[4\]: repeats entry \(2, 1\)",
                 id="repeated-other-value"),
    pytest.param(with_entry(1, [1, 0, "0.5", 0.0]), PAIR, id="string-value"),
    pytest.param(with_entry(1, [1, 0, H, True]), PAIR, id="bool-value"),
    pytest.param(with_entry(1, [1, 0, None, 0.0]), PAIR, id="null-value"),
    pytest.param(with_entry(1, [1, 0, [H], 0.0]), PAIR, id="list-value"),
    pytest.param(with_entry(1, [1, 0, float("nan"), 0.0]), FINITE, id="nan"),
    pytest.param(with_entry(1, [1, 0, H, float("inf")]), FINITE, id="inf"),
    pytest.param(with_entry(1, [1, 0, float("-inf"), 0.0]), FINITE, id="-inf"),
    pytest.param(with_entry(1, [1, 0, 10**400, 0]),
                 FINITE + ", got an integer beyond the float range", id="huge-int-value"),
]
