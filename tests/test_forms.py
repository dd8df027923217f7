"""Every loader against single-field mutations drawn from its form.

For each artifact kind a small valid document is mutated one field at a
time: every field its form declares (an object's fields, a tagged object's
tag, the first entry of a list and each position of a fixed-length list) is
deleted or set to each of `VALUES`. Each mutant must load or raise a
ConfigError, never another exception. The fields come from the forms, so a
new field is mutated with no edit here. Loading only: no stage runs, so no
requested size is ever built.
"""

import contextlib
import copy
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerflow import (FamilyParams, MultisetFamily, WindowSpace, build_flow, build_rips,
                        build_tree_tails, generate, grid_window, tent_family)
from folnerflow.chains import (FAMILY, MULTISET_FAMILY, family_from_json, family_to_json,
                               multiset_family_from_json, multiset_family_to_json)
from folnerflow.errors import ConfigError
from folnerflow.jsonio import ID, Entries, Exact, Form, List, Obj, Rational, Tagged, Tuple, read
from folnerflow.pipeline import CONFIG, MAP_FILE, PipelineConfig
from folnerflow.rips import FLOW, RIPS, flow_from_json, flow_to_json, rips_from_json, rips_to_json
from folnerflow.space import GENERATED_SPACE, SPACE, space_from_json, space_to_json
from folnerflow.tails import COVER, cover_from_json, cover_to_json

VALUES = [None, "x", True, 1.5, -1, 0, 10 ** 10, [], {}, "1/0", "-1/2", [0], "0..3"]
DELETED = object()


def fields(form, doc, path=()):
    """The path of every field `form` declares in `doc`, the first entry of
    each list and each position of a fixed-length list, outermost first."""
    if isinstance(form, Tagged) and type(doc) is dict:
        yield path + (form.key,)
        form = form.variants.get(doc.get(form.key))
    if isinstance(form, Obj) and type(doc) is dict:
        for key, (field, _) in form.fields.items():
            yield path + (key,)
            if key in doc:
                yield from fields(field, doc[key], path + (key,))
    elif isinstance(form, List) and type(doc) is list and doc:
        yield path + (0,)
        yield from fields(form.item, doc[0], path + (0,))
    elif isinstance(form, Tuple) and type(doc) is list:
        for i, (item, value) in enumerate(zip(form.items, doc)):
            yield path + (i,)
            yield from fields(item, value, path + (i,))


def mutant(doc, path, value):
    """`doc` with the field at `path` deleted (DELETED) or set to `value`."""
    doc = copy.deepcopy(doc)
    *parent, last = path
    holder = doc
    for step in parent:
        holder = holder[step]
    if value is DELETED:
        if type(holder) is dict:
            holder.pop(last, None)
        else:
            del holder[last]
    else:
        holder[last] = value
    return doc


def _kinds():
    line = grid_window(1, 0, 6)
    tent = tent_family(line, 2, 1, Fraction(2, 3), core=[3])
    tree = generate({"kind": "tree", "branching": 2, "depth": 2})
    nested = generate({"kind": "union", "spacing": ["1", "2"], "parts": [
        {"kind": "product", "base": {"kind": "grid", "low": 0, "high": 1}, "levels": 2},
        {"kind": "cycle", "length": 3}]})
    graph = space_to_json(line)
    del graph["generator"]
    matrix = space_to_json(WindowSpace(3, frontier=[0], label="m", matrix=[
        [0, 1, Fraction(3, 2)], [1, 0, 1], [Fraction(3, 2), 1, 0]]))
    multiset = MultisetFamily(sets={1: frozenset({(1, 0), (2, 1)}), 2: frozenset({(2, 0)})},
                              M=1, params=FamilyParams(R=1, epsilon=Fraction(1, 2), S=1, M=1))
    rips = build_rips(line, 1)
    config = {"seed": 3, "stages": [
        {"name": "win", "kind": "generate",
         "params": {"spec": {"kind": "grid", "dim": 1, "low": -8, "high": 8}}},
        {"name": "graph", "kind": "rips", "params": {"r": "1/1"}, "inputs": {"space": "win"}},
        {"name": "exit", "kind": "flow", "inputs": {"rips": "graph"}},
        {"name": "tent", "kind": "family", "inputs": {"space": "win"},
         "params": {"kind": "tent", "width": 3, "core": [8]}},
        {"name": "flat", "kind": "flatten", "inputs": {"family": "tent", "flow": "exit"}},
        {"name": "moved", "kind": "push", "inputs": {"family": "flat", "target": "win"},
         "params": {"map": [[8, 9]]}},
        {"name": "check", "kind": "verify", "params": {"require_flat": True},
         "inputs": {"family": "flat"}},
    ]}
    return {  # kind -> (its form, a valid document, its loader)
        "graph-space": (SPACE, graph, space_from_json),
        "matrix-space": (SPACE, matrix, space_from_json),
        "generated-space": (GENERATED_SPACE, space_to_json(nested), space_from_json),
        "rips": (RIPS, rips_to_json(line, rips), rips_from_json),
        "flow": (FLOW, flow_to_json(build_flow(line, rips)), flow_from_json),
        "cover": (COVER, cover_to_json(build_tree_tails(tree)), cover_from_json),
        "family": (FAMILY, family_to_json(tent), lambda doc: family_from_json(doc, line)),
        "multiset-family": (MULTISET_FAMILY, multiset_family_to_json(multiset),
                            multiset_family_from_json),
        "map": (MAP_FILE, {"f": [[0, 0], [1, 2]]}, lambda doc: read(doc, MAP_FILE, "map file")),
        "config": (CONFIG, config, PipelineConfig.from_json),
    }


KINDS = _kinds()


@pytest.mark.parametrize("kind", KINDS)
def test_every_mutant_loads_or_is_a_config_error(kind):
    form, doc, load = KINDS[kind]
    load(copy.deepcopy(doc))  # the document itself loads
    paths = list(fields(form, doc))
    assert len(paths) >= 4, paths
    escaped = []
    for path in paths:
        for value in [DELETED, *VALUES]:
            try:
                load(mutant(doc, path, value))
            except ConfigError:
                pass
            except Exception as e:  # noqa: BLE001 -- any other exception is the finding
                escaped.append((path, value, f"{type(e).__name__}: {e}"))
    assert not escaped, escaped[:5]


def test_fields_come_from_the_forms():
    # the paths of a nested descriptor and of a stage's params are the forms'
    _, doc, _ = KINDS["generated-space"]
    paths = set(fields(GENERATED_SPACE, doc))
    assert {("generator", "parts", 0, "base", "dim"), ("generator", "spacing", 0),
            ("metric", "type"), ("label",)} <= paths
    _, doc, _ = KINDS["config"]
    paths = set(fields(CONFIG, doc))
    assert {("stages", 0, "params", "spec"), ("stages", 0, "inputs"), ("seed",)} <= paths


def docs(form):
    """Documents for `form`, valid or not: its shape, or a leaf of any kind,
    in any nested place."""
    junk = st.sampled_from([0, 1, 4, 5, -1, True, 1.5, "1/2", "0", "x", None, [], {}])
    if isinstance(form, List):  # Entries too
        shape = st.lists(docs(form.item), max_size=4)
    elif isinstance(form, Tuple):
        shape = st.tuples(*map(docs, form.items)).map(list)
    elif isinstance(form, Obj):
        shape = st.fixed_dictionaries({}, optional={key: docs(field) for key, (field, _)
                                                    in form.fields.items()})
    else:
        return junk
    return st.one_of(shape, shape, shape, junk)


NESTED = {  # forms with a fast path at each level, as the artifact forms nest them
    "edges": List(Tuple(ID, ID, Rational("> 0"))),
    "matrix": List(List(Rational())),
    "sets": Entries(Exact(int, 0), List(Tuple(Exact(int, 0), Exact(int, 0)))),
    "chains": Entries(ID, Obj({"weights": Entries(ID, Exact(int, 1)),
                               "tag": (Exact(str), "")})),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(NESTED)), st.data())
def test_fast_paths_read_as_entry_by_entry(name, data):
    """A document read through the C-level passes (`fast`) is the document
    read one value at a time, and both refuse it with the same message."""
    form = NESTED[name]
    doc = data.draw(docs(form))

    def load():
        try:
            return read(copy.deepcopy(doc), form, "doc", points=5)
        except ConfigError as e:
            return str(e)

    fast = load()
    with contextlib.ExitStack() as stack:
        for cls in (Form, Exact, Rational, List, Tuple, Entries, Obj):
            stack.enter_context(mock.patch.object(cls, "fast", lambda self, vs, known: None))
        assert load() == fast
