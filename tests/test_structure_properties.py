"""Fuzzing of the structure file loader: whatever a mutated fixture file
holds, loading either succeeds or raises one of the package's errors."""

import copy
import io
import json
from pathlib import Path

import pytest

from whsg.errors import WhsgError
from whsg.structure import load_structure

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SOURCES = [json.loads((FIXTURES / f"{name}.whs").read_text(encoding="utf-8"))
           for name in ("null3", "z2", "free2", "free2c")]
# symbols the fixtures use, so that mutations also reach the checks behind
# the parser (undeclared states, overlapping symbols, slot shapes)
NAMES = ["a", "b", "c", "e", "g", "#1", "#2", "O", "F", "P", "S", "q0", "q1", ""]
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES + ["states", "start"]), inner,
                      max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw):
    data = copy.deepcopy(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            data = draw(VALUES)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return json.dumps(data)


@hypothesis.settings(max_examples=400, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(mutated())
def test_mutated_fixture_raises_only_package_errors(text):
    try:
        load_structure(io.StringIO(text))
    except WhsgError:
        pass
