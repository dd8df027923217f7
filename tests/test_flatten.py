"""Tower shifting: pinned step examples, termination, monotonicity,
contraction, and family-level flattening."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    handmade_flow, l1_distance, leq, meet, mixed_families, random_chain, random_tree_space,
    setminus)
from folnerflow import (
    Chain,
    FamilyParams,
    FlowEscaped,
    INFINITE_RATIO,
    IndexedFamily,
    base_and_towers,
    disjoint_union,
    flatten,
    flatten_family,
    grid_window,
    ratio,
    shift_step,
    singleton_family,
    subspace,
    tent_family,
)
from folnerflow.chains import in_range_pairs
from folnerflow.rips import FlowField, build_flow, build_rips


def forward_path_flow(n=8):
    # sigma(i) = i + 1 with the sink at the right end
    return handmade_flow({i: i + 1 for i in range(n - 1)}, sinks={n - 1}, n=n)


SPINE = 32  # empty drain path below every chain: 30 units can never pile up


def tree_flow(rng, n=120, spine=SPINE):
    space = random_tree_space(rng, n, spine)
    flow = build_flow(space, build_rips(space, 1))
    support = list(range(spine, space.n))  # keep chains off the drain
    return space, flow, support


def two_line_flow():
    # two 4-point lines further apart than r = 1, draining to sinks 0 and 4
    space = disjoint_union([grid_window(1, 0, 3)] * 2, [2, 2])
    flow = build_flow(space, build_rips(space, 1))
    assert flow.sinks == {0, 4}
    return flow


class TestShiftStep:
    def test_path_example(self):
        flow = forward_path_flow()
        assert shift_step(Chain({0: 3}), flow) == Chain({0: 1, 1: 2})

    def test_flat_chains_are_fixed_points(self):
        flow = forward_path_flow()
        for pts in ({0}, {0, 1}, {2, 5}, {0, 3, 6}):
            a = Chain.from_set(pts)
            assert shift_step(a, flow) == a

    def test_star_redistribution(self):
        # two leaves feeding one centre: both towers land simultaneously
        flow = handmade_flow({0: 2, 1: 2}, sinks={2}, n=3)
        out = shift_step(Chain({0: 2, 1: 2}), flow)
        assert out == Chain({0: 1, 1: 1, 2: 2})
        assert out.l1() == 4

    def test_snapshot_semantics(self):
        # base/towers come from the input snapshot: mass arriving at a
        # point does not count toward that point's towers in the same step
        flow = forward_path_flow()
        a = Chain({0: 2, 1: 2})
        assert shift_step(a, flow) == Chain({0: 1, 1: 2, 2: 1})

    def test_tower_on_sink_escapes(self):
        flow = forward_path_flow(3)
        with pytest.raises(FlowEscaped):
            shift_step(Chain({2: 2}), flow)

    def test_towers_on_two_sinks_report_the_smaller(self):
        flow = two_line_flow()
        for a in (Chain({4: 2, 0: 3}), Chain({0: 3, 4: 2})):
            with pytest.raises(FlowEscaped) as exc:
                shift_step(a, flow)
            assert exc.value.sink == 0

    def test_point_outside_flow(self):
        flow = forward_path_flow(3)
        with pytest.raises(ValueError):
            shift_step(Chain({9: 1}), flow)


class TestFlatten:
    def test_path_example(self):
        flow = forward_path_flow()
        flat, trace = flatten(Chain({0: 3}), flow)
        assert flat == Chain.from_set({0, 1, 2})
        assert trace.steps == 2
        assert trace.bound == 6  # l1 norm 3 times tower mass 2
        assert not trace.escaped

    def test_already_flat(self):
        flow = forward_path_flow()
        a = Chain.from_set({1, 4})
        flat, trace = flatten(a, flow)
        assert flat == a
        assert trace.steps == 0 and trace.bound == 0

    def test_escape_on_short_path(self):
        # mass 4 at sigma-depth 2: three tower units cannot fit in two slots
        flow = forward_path_flow(3)
        with pytest.raises(FlowEscaped):
            flatten(Chain({0: 4}), flow)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            flatten(Chain(), forward_path_flow())

    def test_smallest_sink_of_the_shallowest_escapes(self):
        # mass 9 at depth 1 escapes at step 1 whichever line it is on, and
        # at depth 2 at step 2: of the sinks overflowing first, the smallest
        flow = two_line_flow()
        cases = [(Chain({5: 9, 1: 9}), 0, 1), (Chain({1: 9, 5: 9}), 0, 1),
                 (Chain({5: 9, 2: 9}), 4, 1), (Chain({6: 9, 1: 9}), 0, 1)]
        for a, sink, steps in cases:
            with pytest.raises(FlowEscaped) as exc:
                flatten(a, flow)
            assert (exc.value.sink, exc.value.steps) == (sink, steps)
            assert outcome(iterated_shift_step, a, flow) == ("escaped", sink, steps)


def iterated_shift_step(a, flow):
    """The specification of flatten: shift_step until flat, escapes
    stamped with the number of steps completed."""
    bound = a.l1() * base_and_towers(a)[1].l1()
    steps = 0
    while not a.is_flat():
        assert steps < bound
        try:
            a = shift_step(a, flow)
        except FlowEscaped as e:
            raise FlowEscaped(sink=e.sink, steps=steps) from None
        steps += 1
    return a, steps, bound


def engine(a, flow):
    flat, trace = flatten(a, flow)
    return flat, trace.steps, trace.bound


def outcome(run, a, flow):
    """Everything a run shows: the flat chain and the trace, or the
    escape's sink and step, or the rejection."""
    try:
        flat, steps, bound = run(a, flow)
    except FlowEscaped as e:
        return "escaped", e.sink, e.steps
    except ValueError as e:
        return "rejected", str(e)
    return "flat", flat, steps, bound


class TestEngineMatchesSpec:
    @settings(max_examples=80, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           spine=st.integers(min_value=1, max_value=12),
           width=st.integers(min_value=1, max_value=6),
           parts=st.integers(min_value=1, max_value=4))
    def test_random_tree_flows(self, rng, spine, width, parts):
        # mass piled on a few points above a short spine escapes about
        # half the time; copies of the tree further apart than r = 1 drain
        # to a sink each, and the chain copied into all of them in a shuffled
        # order passes every sink at the same step: the smallest is reported
        space = random_tree_space(rng, spine + 30, spine)
        a = random_chain(rng, rng.sample(range(spine, space.n), width), 30)
        if parts > 1:
            copies = [(k * space.n + x, v) for k in range(parts) for x, v in a.items()]
            rng.shuffle(copies)
            space, a = disjoint_union([space] * parts, [2] * parts), Chain(dict(copies))
        flow = build_flow(space, build_rips(space, 1))
        assert outcome(engine, a, flow) == outcome(iterated_shift_step, a, flow)

    @given(n=st.integers(min_value=2, max_value=8),
           weights=st.dictionaries(st.integers(min_value=0, max_value=7),
                                   st.integers(min_value=1, max_value=6),
                                   min_size=1),
           tent=st.none() | st.tuples(st.integers(min_value=2, max_value=7),
                                      st.integers(min_value=0, max_value=40)))
    def test_short_paths(self, n, weights, tent):
        # random weights on an n-point path, or a width-W tent at c on the
        # 0..47 line, whose flow drains to 0: the tent flattens onto the W * W
        # points below c + W, so it escapes iff c < W * (W - 1)
        if tent is None:
            flow = forward_path_flow(n)
            a = Chain({x: v for x, v in weights.items() if x < n} or {0: 1})
        else:
            (W, c), line = tent, grid_window(1, 0, 47)
            flow = build_flow(line, build_rips(line, 1))
            a = tent_family(line, W, 1, 1, core=[c]).chains[c]
        got = outcome(engine, a, flow)
        assert got == outcome(iterated_shift_step, a, flow)
        if tent is not None:
            assert (got[0] == "escaped") == (c < W * (W - 1))
        elif a.l1() > n:  # more units than points: some must pass the sink
            assert got[0] == "escaped"

    def test_escape_sink_and_step(self):
        flow = forward_path_flow(3)
        assert outcome(engine, Chain({0: 4}), flow) == ("escaped", 2, 2)
        assert outcome(iterated_shift_step, Chain({0: 4}), flow) == ("escaped", 2, 2)

    def test_support_order_counts_every_entry_at_the_parking_step(self):
        # at step 2 the towers of 4 and 5 both reach 1, from the new point 2
        # and the old point 3; the tower of 6 reaches 7 through the old 8
        flow = handmade_flow({1: 0, 2: 1, 3: 1, 4: 2, 5: 3, 6: 8, 7: 0, 8: 7}, sinks={0})
        a = Chain({4: 3, 5: 2, 3: 1, 6: 2, 8: 1})
        assert outcome(engine, a, flow) == outcome(iterated_shift_step, a, flow)

    def test_sigma_into_uncovered_point_rejected_at_construction(self):
        # sigma(1) = 9, and 9 is neither in sigma nor a sink: no flow to run on
        with pytest.raises(ValueError, match="orbit of 0 leaves the flow at 9"):
            FlowField(sigma={0: 1, 1: 9}, sinks=frozenset({2}), r=Fraction(1), n=10)


class TestClaims:
    def test_norm_preserved_randomized(self, rng):
        for _ in range(100):
            space, flow, support = tree_flow(rng)
            a = random_chain(rng, support, 30)
            assert shift_step(a, flow).l1() == a.l1()
            flat, _ = flatten(a, flow)
            assert flat.l1() == a.l1()

    def test_monotone_in_the_chain(self, rng):
        # a <= a' pointwise is preserved by every step
        for _ in range(60):
            space, flow, support = tree_flow(rng)
            big = random_chain(rng, support, 30)
            small = Chain({
                x: rng.randint(0, v) for x, v in big.items()
            })
            if not small:
                continue
            a, b = small, big
            for _step in range(40):
                assert leq(a, b)
                if a.is_flat() and b.is_flat():
                    break
                a, b = shift_step(a, flow), shift_step(b, flow)

    def test_termination_with_epochal_tower_decrease(self, rng):
        # while towers remain, the support strictly grows and the tower
        # mass strictly drops within every window of l1-norm many steps
        for _ in range(40):
            space, flow, support = tree_flow(rng)
            a = random_chain(rng, support, 25)
            norm = a.l1()
            towers_norm = [base_and_towers(a)[1].l1()]
            supports = [a.support()]
            cur = a
            while not cur.is_flat():
                cur = shift_step(cur, flow)
                towers_norm.append(base_and_towers(cur)[1].l1())
                supports.append(cur.support())
            assert len(towers_norm) - 1 <= norm * towers_norm[0]
            for k in range(len(towers_norm)):
                if towers_norm[k] == 0:
                    continue
                window = towers_norm[k + 1: k + 1 + norm]
                assert min(window, default=0) < towers_norm[k]
                grown = supports[min(k + norm, len(supports) - 1)]
                assert supports[k] < grown or towers_norm[min(k + norm, len(towers_norm) - 1)] == 0
            for s, t in zip(supports, supports[1:]):
                assert s <= t

    def test_meet_inequality_and_contraction(self, rng):
        for _ in range(60):
            space, flow, support = tree_flow(rng)
            a = random_chain(rng, support, 30)
            b = random_chain(rng, support, 30)
            fa, _ = flatten(a, flow)
            fb, _ = flatten(b, flow)
            m = meet(a, b)
            if m:
                fm, _ = flatten(m, flow)
                assert leq(fm, meet(fa, fb))
            assert setminus(fa, fb).l1() <= setminus(a, b).l1()
            assert l1_distance(fa, fb) <= l1_distance(a, b)
            assert meet(a, b).l1() <= meet(fa, fb).l1()

    def test_support_locality(self, rng):
        for _ in range(40):
            space, flow, support = tree_flow(rng)
            a = random_chain(rng, support, 20)
            out = shift_step(a, flow)
            for z in out.support():
                assert min(space.dist(z, x) for x in a.support()) <= flow.r


class TestFlattenFamily:
    def build_line(self, lo=-60, hi=60):
        space = grid_window(1, lo, hi)
        flow = build_flow(space, build_rips(space, 1))
        return space, flow

    def test_tent_family_flattens_and_contracts(self):
        space, flow = self.build_line()
        core = range(75, 105)  # far enough from the sink end for mass 36
        fam = tent_family(space, 6, R=1, epsilon=Fraction(1, 4), core=core)
        out, report = flatten_family(fam, flow)
        assert out.is_flat()
        assert not report.escaped_indices
        assert report.pair_regressions == []
        assert report.worst_ratio_after <= report.worst_ratio_before
        assert report.new_S == fam.params.S + flow.r * report.max_steps
        for x in core:
            for z in out.chains[x].support():
                assert space.dist(x, z) <= report.new_S

    def test_tent_weights_in_ball_order(self):
        space, _ = self.build_line()
        matrix = subspace(space, range(space.n))
        for s in (space, matrix):
            fam = tent_family(s, 5, R=1, epsilon=1, core=range(40, 45))
            for x, c in fam.chains.items():
                assert dict(c) == {z: 5 - s.dist(x, z) for z in s.ball(x, 4)}

    def test_tent_needs_integer_distances(self):
        u = disjoint_union([grid_window(1, 0, 4)] * 2, [Fraction(1, 2), Fraction(3, 2)])
        with pytest.raises(ValueError, match="integer distances"):
            tent_family(u, 3, R=1, epsilon=1)
        with pytest.raises(ValueError, match="integer distances"):
            tent_family(subspace(u, range(u.n)), 3, R=1, epsilon=1)
        for width in (0, Fraction(3), True):
            with pytest.raises(ValueError, match="width"):
                tent_family(grid_window(1, 0, 9), width, R=1, epsilon=1)

    def test_already_flat_family_unchanged(self):
        space, flow = self.build_line()
        chains = {x: Chain.from_set({x, x + 1}) for x in range(40, 50)}
        fam = IndexedFamily(space=space, chains=chains,
                            params=FamilyParams(R=1, epsilon=1, S=1))
        out, report = flatten_family(fam, flow)
        assert out.chains == chains
        assert report.max_steps == 0
        assert report.new_S == fam.params.S

    def test_singleton_family_reports_infinity_faithfully(self):
        space, flow = self.build_line()
        fam = singleton_family(space, R=1, epsilon=Fraction(1, 4),
                               core=range(40, 50))
        out, report = flatten_family(fam, flow)
        assert out.chains == fam.chains
        assert report.worst_ratio_before == INFINITE_RATIO
        assert report.worst_ratio_after == INFINITE_RATIO

    def test_escape_names_index(self):
        space, flow = self.build_line(0, 30)
        fam = IndexedFamily(
            space=space,
            chains={3: Chain({3: 9})},  # depth 3, mass 9: must escape
            params=FamilyParams(R=1, epsilon=1, S=0),
        )
        with pytest.raises(FlowEscaped) as exc:
            flatten_family(fam, flow)
        assert exc.value.index == 3

    def test_escape_collect_mode(self):
        space, flow = self.build_line(0, 30)
        chains = {3: Chain({3: 9}), 20: Chain({20: 3})}
        fam = IndexedFamily(space=space, chains=chains,
                            params=FamilyParams(R=1, epsilon=1, S=0))
        out, report = flatten_family(fam, flow, on_escape="collect")
        assert report.escaped_indices == [3]
        assert set(out.chains) == {20}
        assert report.escaped_traces[3].escaped


LINE = grid_window(1, 0, 23)
LINE_FLOW = build_flow(LINE, build_rips(LINE, 1))


class TestFlattenFamilyIntTerms:
    @settings(max_examples=100, deadline=None)
    @given(fam=mixed_families(LINE, range(4, 20)))
    def test_worst_ratios_match_ratio_loop(self, fam):
        out, report = flatten_family(fam, LINE_FLOW, on_escape="collect")
        pairs = list(in_range_pairs(LINE, out.chains, fam.params.R))
        before = [ratio(fam.chains[x], fam.chains[y]) for x, y in pairs]
        after = [ratio(out.chains[x], out.chains[y]) for x, y in pairs]
        assert report.worst_ratio_before == max(before, default=None)
        assert report.worst_ratio_after == max(after, default=None)
        assert report.pair_regressions == []
