"""The shipped run-config schema and the config loader accept the same documents."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from passive_decoy import ConfigError, ParameterError, run_config_from_dict
from passive_decoy.reports import load_schema

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "reference.json").read_text())
SCHEMA = load_schema("run_config")
VALIDATOR = Draft202012Validator(SCHEMA)

# Integers stay within float range: an integer too large for a float is a
# schema-valid number the loader rejects, which JSON Schema cannot express;
# test_cli's test_bad_field_exits_validation covers it.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=8)


def _locations(node, path=()):
    """Every (path, node) pair of a parsed JSON document, the root included."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _locations(child, (*path, key))


def _parent(doc, path):
    """The object or array that holds the location ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _loads(doc) -> bool:
    try:
        run_config_from_dict(doc)
    except ConfigError:
        return False
    return True


@st.composite
def mutated_reference(draw):
    """The reference config with one location replaced, deleted or extended."""
    doc = copy.deepcopy(REFERENCE)
    path, node = draw(st.sampled_from(list(_locations(doc))))
    ops = ["set"] + (["delete"] if path else []) + (["add"] if isinstance(node, dict) else [])
    op = draw(st.sampled_from(ops))
    if op == "add":
        node[draw(st.text(max_size=8).filter(lambda k: k not in node))] = draw(JSON_VALUES)
    elif not path:
        doc = draw(JSON_VALUES)
    elif op == "delete":
        del _parent(doc, path)[path[-1]]
    else:
        _parent(doc, path)[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(derandomize=True, database=None, max_examples=500)
@given(mutated_reference())
def test_schema_and_loader_accept_the_same_documents(doc):
    assert VALIDATOR.is_valid(doc) == _loads(doc)


def test_schema_and_loader_agree_at_every_bound():
    """Each bound the schema states, and 0 and 1, probed on, beside and across."""
    disagreements = []
    for path, node in _locations(REFERENCE):
        schema = SCHEMA
        for key in path:
            schema = schema["properties"][key] if isinstance(key, str) else schema["prefixItems"][key]
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            continue
        bounds = [schema[k] for k in ("minimum", "maximum", "exclusiveMinimum",
                                      "exclusiveMaximum") if k in schema]
        for bound in [*bounds, 0, 1]:
            for value in (bound, float(bound), bound - 1, bound + 1,
                          math.nextafter(bound, -math.inf),
                          math.nextafter(bound, math.inf)):
                doc = copy.deepcopy(REFERENCE)
                _parent(doc, path)[path[-1]] = value
                if VALIDATOR.is_valid(doc) != _loads(doc):
                    disagreements.append((".".join(map(str, path)), value))
    assert disagreements == []


def test_unknown_schema_name_is_refused():
    with pytest.raises(ParameterError, match="^unknown schema 'nope'$"):
        load_schema("nope")
