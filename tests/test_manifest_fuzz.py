"""Manifest fuzzing: a small emitted document with one mutation that makes
it invalid is refused with a StatemetricError, and the CLI reading it ends
in exit code 1 or 2, never in a traceback.

The document is the spin-1 (m = 0) manifest, dimension 3, so every example
stays small: as ``models emit`` writes it, with sparse generators, and with
the same generators in the dense form.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statemetric import cli, manifest
from statemetric.errors import StatemetricError
from statemetric.models import SpinModelSpec, spin_model

from manifest_forms import dense_doc

SPIN = spin_model(SpinModelSpec(s=1, m=0))
DOCS = {"sparse": json.loads(manifest.emit(SPIN)), "dense": dense_doc(SPIN)}
REQUIRED = ("name", "dimension", "generators", "circuit", "initial_state")
NESTED = [[0.0, 0.0]]
# replacement leaves; one of the same JSON kind as the leaf it replaces may
# be valid (an int amplitude, another name), so those are not drawn
REPLACEMENTS = {
    "bool": True, "null": None, "string": "0.5", "int": 7, "huge": 10**400,
    "nan": float("nan"), "nested": NESTED,
}
SETTINGS = settings(max_examples=100, deadline=None)


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from leaf_paths(value, path + (k,))
    else:
        yield path


LEAVES = {form: list(leaf_paths(doc)) for form, doc in DOCS.items()}


def kind(value) -> str:
    """The REPLACEMENTS key of a leaf's JSON kind; any number counts as an
    int, since an int in place of a float may be valid."""
    if isinstance(value, bool):
        return "bool"
    if value is None:
        return "null"
    return "string" if isinstance(value, str) else "int"


def parent_of(doc, path):
    node = doc
    for key in path[:-1]:
        node = node[key]
    return node


@st.composite
def broken_documents(draw, form):
    """The document of this form with one mutation that makes it invalid."""
    doc = copy.deepcopy(DOCS[form])
    mutations = ["leaf", "drop", "ragged", "dimension"]
    if form == "sparse":
        mutations += ["entry_length", "repeat", "index_at_dimension", "negative_index"]
    mutation = draw(st.sampled_from(mutations))
    entries = [e for G in doc["generators"].values() if isinstance(G, dict)
               for e in G["entries"]]
    if mutation == "leaf":
        path = draw(st.sampled_from(LEAVES[form]))
        parent = parent_of(doc, path)
        allowed = [k for k in REPLACEMENTS if k != kind(parent[path[-1]])]
        parent[path[-1]] = copy.deepcopy(REPLACEMENTS[draw(st.sampled_from(allowed))])
    elif mutation == "drop":
        # a required field, or a generator: the circuit then names an
        # unknown one or the rest no longer closes
        where = draw(st.sampled_from([doc] + [doc["generators"]]))
        key = draw(st.sampled_from([k for k in where if where is not doc or k in REQUIRED]))
        del where[key]
    elif mutation == "ragged":
        # a dense generator row, or the state's list of amplitudes
        rows = [row for G in doc["generators"].values() if isinstance(G, list)
                for row in G] + [doc["initial_state"]]
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append([0.0, 0.0])
        else:
            row.pop()
    elif mutation == "dimension":
        doc["dimension"] = draw(st.sampled_from([-1, 0, 1, 2, 4, 9, 10**6]))
    elif mutation == "entry_length":
        entry = draw(st.sampled_from(entries))
        if draw(st.booleans()):
            entry.append(0.0)
        else:
            entry.pop()
    elif mutation == "repeat":
        G = draw(st.sampled_from([G for G in doc["generators"].values() if G["entries"]]))
        G["entries"].insert(draw(st.integers(0, len(G["entries"]))),
                            copy.deepcopy(draw(st.sampled_from(G["entries"]))))
    else:
        entry = draw(st.sampled_from(entries))
        index = (doc["dimension"] if mutation == "index_at_dimension"
                 else draw(st.integers(-2**63, -1)))
        entry[draw(st.integers(0, 1))] = index
    return doc


def run(argv):
    """(exit code, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "manifest.json"


def test_document_is_valid():
    for doc in DOCS.values():
        manifest.parse_manifest(copy.deepcopy(doc))


def refused(doc):
    with pytest.raises(StatemetricError):
        manifest.parse_manifest(doc)


def exits_cleanly(doc, path):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for argv in (["validate", str(path)], ["metric", str(path), "--defaults-zero"]):
        code, err = run(argv)
        assert code in (1, 2), (argv, code)
        assert "Traceback" not in err


@SETTINGS
@given(doc=broken_documents("sparse"))
def test_parse_refuses_broken_documents(doc):
    refused(doc)


@SETTINGS
@given(doc=broken_documents("dense"))
def test_parse_refuses_broken_dense_documents(doc):
    refused(doc)


@SETTINGS
@given(doc=broken_documents("sparse"))
def test_cli_exits_cleanly_on_broken_documents(doc, path):
    exits_cleanly(doc, path)


@SETTINGS
@given(doc=broken_documents("dense"))
def test_cli_exits_cleanly_on_broken_dense_documents(doc, path):
    exits_cleanly(doc, path)
