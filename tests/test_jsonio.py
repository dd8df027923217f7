"""The one rendering rule for exact values (`jsonio.to_doc`) and the report
records whose docs it renders (`jsonio.Doc`)."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerflow import FamilyParams, build_tree_tails, tree_window
from folnerflow.chains import INFINITE_RATIO, FamilyReport, verify_family
from folnerflow.constructions import BoxFamilyReport, box_family, build_box_space
from folnerflow.families import ball_family
from folnerflow.flatten import FlattenReport, FlattenTrace
from folnerflow.jsonio import Doc, format_ratio, format_rational, to_doc
from folnerflow.space import grid_window
from folnerflow.tails import TailCoverReport, verify_tail_cover


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

    @pytest.mark.parametrize("v", [0.5, -math.inf, math.nan, {1.0: 1}, {True: 1}, {(1,): 1},
                                   {1, 2}, frozenset()])
    def test_other_values_raise(self, v):
        with pytest.raises(TypeError):
            to_doc(v)


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
        names = [f.name for f in dataclasses.fields(record)]
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
