"""The one rendering rule for exact values (`jsonio.to_doc`), the report
records whose docs it renders (`jsonio.Doc`), and the writer
(`jsonio.dump_json`) against `json.dumps`."""

import json
import math
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerflow import FamilyParams, build_tree_tails, tree_window
from folnerflow.chains import (INFINITE_RATIO, FamilyReport, IndexedFamily, MultisetFamily,
                               verify_family)
from folnerflow.constructions import (BoxFamilyReport, BoxSpaceModel, CoarseMapModel, box_family,
                                      build_box_space)
from folnerflow.families import ball_family
from folnerflow.flatten import FlattenReport, FlattenTrace
from folnerflow.errors import ConfigError
from folnerflow.jsonio import (Doc, dump_json, format_ratio, format_rational, load_json,
                               parse_rational, to_doc)
from folnerflow.pipeline import PipelineConfig, Stage, StageKind
from folnerflow.rips import FlowField, RipsGraph, UnboundednessReport
from folnerflow.space import grid_window
from folnerflow.tails import TailCover, TailCoverReport, verify_tail_cover


def reference(v):
    """to_doc spelled out with isinstance and the two formatters."""
    if v is None or isinstance(v, (int, str)):  # bools are ints
        return v
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, float):
        assert v == INFINITE_RATIO
        return format_ratio(v)
    if isinstance(v, (list, tuple)):
        return [reference(x) for x in v]
    return {format_rational(k) if isinstance(k, Fraction) else str(k): reference(x)
            for k, x in v.items()}


keys = st.one_of(st.integers(), st.fractions())
leaves = st.one_of(st.integers(), st.booleans(), st.none(), st.fractions(),
                   st.just(INFINITE_RATIO), st.text(max_size=3))
docs = st.recursive(leaves, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(keys, children, max_size=4)), max_leaves=20)
stray = st.floats().filter(lambda f: f != INFINITE_RATIO)
# a doc with one stray float somewhere inside, next to clean siblings
with_float = st.recursive(stray, lambda child: st.one_of(
    st.tuples(docs, child).map(list), st.tuples(child, docs),
    st.builds(lambda d, k, x: {**d, k: x}, st.dictionaries(keys, docs, max_size=3), keys, child)),
    max_leaves=6)


class TestToDoc:
    @settings(max_examples=150, deadline=None)
    @given(docs)
    def test_matches_the_reference(self, v):
        doc = to_doc(v)
        assert doc == reference(v)
        json.dumps(doc)  # plain JSON, no exact type left

    @settings(max_examples=50, deadline=None)
    @given(with_float)
    def test_stray_float_raises(self, v):
        with pytest.raises(TypeError):
            to_doc(v)

    def test_leaves(self):
        assert to_doc(Fraction(3)) == "3/1"
        assert to_doc(Fraction(-2, 6)) == "-1/3"
        assert to_doc(INFINITE_RATIO) == "infinity"
        assert to_doc({Fraction(1, 2): 1, 3: (True, None)}) == {"1/2": 1, "3": [True, None]}
        assert to_doc({"S": Fraction(1, 2)}) == {"S": "1/2"}

    @pytest.mark.parametrize("v", [0.5, -math.inf, math.nan, {1.0: 1}, {True: 1}, {(1,): 1},
                                   {1, 2}, frozenset()])
    def test_other_values_raise(self, v):
        with pytest.raises(TypeError):
            to_doc(v)


@pytest.mark.parametrize("s, message", [
    (0.5, "expected an exact rational, got 0.5"),
    (False, "expected an exact rational, got False"),
    ("1.5.2", "not a rational: '1.5.2'"),
    ("1/0", "not a rational: '1/0'"),
], ids=["float", "bool", "junk", "zero-denominator"])
def test_parse_rational_refuses_what_is_no_exact_rational(s, message):
    with pytest.raises(ConfigError) as info:
        parse_rational(s)
    assert str(info.value) == message


def test_load_json_names_a_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": ')
    with pytest.raises(ConfigError) as info:
        load_json(path)
    assert str(info.value).startswith(f"malformed JSON in {path}: Expecting value")


def records():
    """One record of each Doc type, from the functions that build them."""
    params = FamilyParams(R=1, epsilon=Fraction(1, 2), S=3, M=1)
    line = grid_window(1, 0, 20)
    verdict = verify_family(ball_family(line, 2, R=1, epsilon=Fraction(1, 8)))
    trace = FlattenTrace(steps=2, bound=6, support_radius_growth=Fraction(2), escaped=True)
    flattened = FlattenReport(
        worst_ratio_before=INFINITE_RATIO, worst_ratio_after=Fraction(1, 3), max_steps=2,
        new_S=Fraction(5), input_S=Fraction(3), r=Fraction(1), escaped_indices=[4],
        escaped_traces={4: trace}, pair_regressions=[])
    tree = tree_window(2, 3)
    cover = verify_tail_cover(build_tree_tails(tree), tree)
    _, boxes = box_family(build_box_space(3, 4), range(6), 1, Fraction(1, 2))
    return [params, verdict, trace, flattened, cover, boxes]


class TestDocRecords:
    def test_every_record_is_a_doc(self):
        kinds = [type(r) for r in records()]
        assert kinds == [FamilyParams, FamilyReport, FlattenTrace, FlattenReport,
                         TailCoverReport, BoxFamilyReport]
        assert all(issubclass(k, Doc) for k in kinds)

    @pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
    def test_keys_are_field_names(self, record):
        names = list(type(record)._fields)
        if type(record) is FamilyReport:  # the one renamed key
            names[names.index("pair_count")] = "pairs_checked"
        doc = record.to_json()
        assert sorted(doc) == sorted(names)
        assert doc == to_doc(record)
        json.dumps(doc)

    def test_nested_records_render_as_their_docs(self):
        flattened = records()[3]
        assert flattened.to_json()["escaped_traces"] == {"4": {
            "steps": 2, "bound": 6, "support_radius_growth": "2/1", "escaped": True}}
        assert flattened.to_json()["worst_ratio_before"] == "infinity"

    def test_family_report_keeps_its_attribute(self):
        verdict = records()[1]
        assert verdict.to_json()["pairs_checked"] == verdict.pair_count > 0


RECORDS = [FamilyParams, IndexedFamily, MultisetFamily, FamilyReport, CoarseMapModel,
           BoxSpaceModel, BoxFamilyReport, FlattenTrace, FlattenReport, RipsGraph,
           UnboundednessReport, FlowField, TailCover, TailCoverReport, Stage, PipelineConfig,
           StageKind]


@pytest.mark.parametrize("kind", RECORDS, ids=lambda k: k.__name__)
def test_every_record_is_a_slotted_namedtuple(kind):
    assert issubclass(kind, tuple)
    assert kind._fields
    # _make builds the tuple without the record's own checks
    assert not hasattr(kind._make(range(len(kind._fields))), "__dict__")


# -- the writer ------------------------------------------------------------------


class Int(int):
    pass


class Str(str):
    pass


Pair = namedtuple("Pair", "a b")

texts = st.text(alphabet=st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀')),
                max_size=4)
ints = st.one_of(st.integers(-3, 3), st.integers(), st.integers(-2 ** 80, 2 ** 80))
scalars = st.one_of(ints, st.booleans(), st.none(), texts)


def rows(cells, min_size=0):
    """Lists of equal-length lists (the writer's tables), as lists or tuples."""
    return st.integers(1, 3).flatmap(lambda k: st.lists(
        st.one_of(st.lists(cells, min_size=k, max_size=k),
                  st.lists(cells, min_size=k, max_size=k).map(tuple)),
        min_size=min_size, max_size=4))


json_leaves = st.one_of(
    scalars, st.lists(ints, max_size=5), st.lists(texts, max_size=5),
    st.lists(st.one_of(st.booleans(), st.integers(-1, 2)), max_size=5),  # True next to 1
    rows(ints), rows(scalars), st.lists(st.lists(ints, max_size=3), max_size=4),  # ragged
    rows(st.lists(ints, max_size=3)), rows(st.one_of(ints, st.lists(ints, min_size=1))),
    st.just([]), st.just({}), st.just(()), st.just([[], []]))
json_docs = st.recursive(json_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(texts, children, max_size=4), rows(children, min_size=1)), max_leaves=25)
# a value json.dumps would write but the writer refuses, somewhere inside a clean doc
unhandled = st.one_of(
    st.floats(), st.builds(Int, st.integers()), st.builds(Str, texts),
    st.builds(Pair, ints, texts),
    st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none(), st.floats()), scalars,
                    min_size=1, max_size=3),
    # k first: a dict keeps the first of two equal keys, so a str in d equal
    # to a Str k cannot take k's place
    st.builds(lambda d, k: {k: 1, **d}, st.dictionaries(texts, scalars, max_size=2),
              st.one_of(st.integers(), st.builds(Str, texts))))
with_unhandled = st.recursive(unhandled, lambda child: st.one_of(
    st.tuples(json_docs, child).map(list), st.tuples(child, json_docs),
    st.builds(lambda d, k, x: {**d, k: x}, st.dictionaries(texts, json_docs, max_size=3),
              texts, child),
    st.builds(lambda x, y: [[1, x], [2, y]], child, scalars)), max_leaves=6)


class TestDumpJson:
    @settings(max_examples=300, deadline=None)
    @given(json_docs)
    def test_matches_json_dumps(self, doc):
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(with_unhandled)
    def test_refuses_what_it_does_not_render(self, doc):
        # no fallback: json.dumps writes each of these (a float as a float),
        # the writer raises as to_doc does
        json.dumps(doc)
        with pytest.raises(TypeError):
            dump_json(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"points": 1.5}, "1.5 (float) cannot go into an artifact"),
        ([[0, 1, "1/1"], [1, 2, 0.5]], "0.5 (float) cannot go into an artifact"),
        ({"a": {3: "x"}}, "3 cannot be a JSON key"),
    ], ids=["float", "float-in-a-table", "int-key"])
    def test_refusal_names_the_value(self, doc, message):
        with pytest.raises(TypeError) as info:
            dump_json(doc)
        assert str(info.value) == message

    def test_pinned_text(self):
        doc = {"b": [[1, "x"], [2, "\u00e9"]], "a": (True, 1, None, []), "c": {}}
        assert dump_json(doc) == (
            '{\n  "a": [\n    true,\n    1,\n    null,\n    []\n  ],\n  "b": [\n    [\n'
            '      1,\n      "x"\n    ],\n    [\n      2,\n      "\\u00e9"\n    ]\n  ],\n'
            '  "c": {}\n}\n')

    def test_circular_and_deep_documents(self):
        loop = [1]
        loop.append(loop)
        deep = []
        for _ in range(5000):
            deep = [deep]
        for doc in (loop, {"a": [loop]}, deep):
            with pytest.raises(RecursionError):
                dump_json(doc)

    def test_writes_the_text_it_returns(self, tmp_path):
        doc = {"edges": [[0, 1, "1/1"], [1, 2, "3/2"]], "points": 3}
        text = dump_json(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_text() == text == dump_json(doc)
