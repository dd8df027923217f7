"""Tail covers: verification, the greedy tree builder, and transport."""

import random
import re
from fractions import Fraction

import pytest
from conftest import (count_searches, floyd_warshall, graph_space, rational_graphs,
                      unit_graphs, verify_tail_cover_by_steps)
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerflow import (
    BranchingTooLow,
    FamilyParams,
    MultisetFamily,
    TailCover,
    TailTooShort,
    WindowSpace,
    build_tree_tails,
    grid_window,
    tail_transport,
    transport_set,
    tree_window,
    verify_tail_cover,
)
from folnerflow.errors import ConfigError
from folnerflow.space import space_from_json
from folnerflow.tails import check_cover_on_space, cover_from_json, cover_to_json


class TestVerifyTailCover:
    def test_rightward_tails_measured_K(self):
        # t^x_j = x + j on the window {0..5}: the right end is hit by all
        # six tails, so the smallest admissible K is 6
        space = grid_window(1, 0, 5)
        cover = TailCover(
            tails={x: tuple(range(x, 6)) for x in range(6)}, r=Fraction(1), K=6
        )
        report = verify_tail_cover(cover, space)
        assert report.passed
        assert report.measured_K == 6
        assert report.measured_step == 1

    def test_single_point_space(self):
        space = grid_window(1, 0, 0)
        cover = TailCover(tails={0: (0,)}, r=Fraction(5), K=1)
        report = verify_tail_cover(cover, space)
        assert report.passed and report.measured_K == 1
        assert report.measured_step is None

    def test_repeated_point_flagged(self):
        space = grid_window(1, 0, 5)
        cover = TailCover(tails={0: (0, 1, 0, 1, 2, 3, 4, 5)}, r=Fraction(1), K=9)
        report = verify_tail_cover(cover, space)
        assert not report.passed
        assert report.distinct_violations == [0]

    def test_step_start_frontier_and_multiplicity_flags(self):
        space = grid_window(1, 0, 5)
        cover = TailCover(
            tails={0: (0, 2, 3, 4, 5), 1: (2, 3, 4, 5), 2: (2, 3)},
            r=Fraction(1), K=2,
        )
        report = verify_tail_cover(cover, space)
        assert report.step_violations == [(0, 0, Fraction(2))]
        assert report.start_violations == [1, 3, 4, 5]  # 3, 4 and 5 have no tail
        assert report.frontier_violations == [2]
        assert (5, 3) not in report.multiplicity_violations  # 2 tails end at 5... third is short
        assert any(z == 2 for z, _c in report.multiplicity_violations)


def outcome(check, cover, space):
    """The report of `check`, or the KeyError it raises, as a comparable value."""
    try:
        report = check(cover, space)
    except KeyError as e:
        return "KeyError", str(e)
    return report, type(report.measured_step), [type(d) for _, _, d in report.step_violations]


@st.composite
def covers(draw, space, neighbours):
    """A hand-made cover of some points of `space`: tails that walk along
    `neighbours` or jump anywhere (long steps), repeat points, start
    elsewhere, stop off the frontier or at a frontier point, and now and
    then name a point outside the space; r from 0 to 5/2 (and -1/2), K small;
    the points in a random order."""
    n = space.n
    point = st.integers(0, n - 1)
    tails = {}
    for x in sorted(draw(st.sets(point, max_size=n))):
        seq = [x if draw(st.integers(0, 5)) else draw(point)]  # the wrong start 1 in 6
        for _ in range(draw(st.integers(0, 5))):
            near = neighbours[seq[-1]]
            seq.append(draw(st.sampled_from(sorted(near))) if near and draw(st.booleans())
                       else draw(point))
        if space.frontier and draw(st.booleans()):
            seq.append(draw(st.sampled_from(sorted(space.frontier))))
        if not draw(st.integers(0, 9)):
            seq = [] if not draw(st.integers(0, 2)) else seq + [draw(st.sampled_from([n, -1]))]
        tails[x] = tuple(seq)
    tails = {x: tails[x] for x in draw(st.permutations(list(tails)))}  # in no particular order
    r = draw(st.one_of(st.sampled_from([0, 1, 2, Fraction(-1, 2)]),
                       st.fractions(0, Fraction(5, 2), max_denominator=6)))
    return TailCover(tails=tails, r=r, K=draw(st.integers(1, 3)))


class TestOneSearchPerSource:
    """`verify_tail_cover` (on a unit-weight window a step to a graph
    neighbour b != a has length 1 with no search; one targeted search per
    point another step leaves) against the per-step `dist` loop: the same
    report, field by field and in the same order, with Fractions for the
    measured step and the step lengths, or the same KeyError for a point
    outside the space."""

    def check(self, space, cover):
        assert outcome(verify_tail_cover, cover, space) == outcome(
            verify_tail_cover_by_steps, cover, space)

    def check_graph(self, n, edges, frontier, data):
        neighbours = [set() for _ in range(n)]
        for x, y, _ in edges:
            neighbours[x].add(y)
            neighbours[y].add(x)
        graph = graph_space(n, edges, frontier)
        twin = WindowSpace(n, frontier=frontier, matrix=floyd_warshall(n, edges))
        for _ in range(3):
            cover = data.draw(covers(graph, neighbours))
            self.check(graph, cover)
            self.check(twin, cover)

    @settings(max_examples=60, deadline=None)
    @given(unit_graphs(), st.data())
    def test_unit_graphs_and_their_matrices(self, graph, data):
        self.check_graph(*graph, data)

    @settings(max_examples=60, deadline=None)
    @given(rational_graphs(), st.data())
    def test_rational_graphs_and_their_matrices(self, graph, data):
        self.check_graph(*graph, data)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 4), st.data())
    def test_built_and_mutated_tree_covers(self, branching, depth, data):
        """A built cover passes; one mutation of it (a long step, a repeated
        point, a wrong start, a dropped end, a lower K, a smaller r) shows up
        the same on both sides."""
        space = tree_window(branching, depth)
        cover = build_tree_tails(space)
        self.check(space, cover)
        tails = dict(cover.tails)
        x = data.draw(st.sampled_from(sorted(tails)))
        seq = list(tails[x])
        kind = data.draw(st.sampled_from(["jump", "repeat", "start", "end", "K", "r"]))
        if kind == "jump":
            seq.insert(data.draw(st.integers(1, len(seq))), data.draw(st.integers(0, space.n - 1)))
        elif kind == "repeat":
            seq.insert(data.draw(st.integers(0, len(seq))), data.draw(st.sampled_from(seq)))
        elif kind == "start":
            seq[0] = (x + 1) % space.n
        elif kind == "end":
            seq = seq[:-1]
        tails[x] = tuple(seq)
        self.check(space, TailCover(
            tails=tails, r=Fraction(1, 2) if kind == "r" else cover.r,
            K=cover.K - 1 if kind == "K" else cover.K))

    def test_depth_11_tree(self):
        """The benchmark's tree: 4,083 steps over 2,047 source points."""
        space = tree_window(2, 11)
        cover = build_tree_tails(space)
        self.check(space, cover)
        tails = {x: seq[:1] + seq[2:] if x % 7 == 0 else seq for x, seq in cover.tails.items()}
        self.check(space, TailCover(tails=tails, r=Fraction(3, 2), K=1))

    def test_built_cover_runs_no_search(self, monkeypatch):
        # the benchmark's cover: every step is a tree edge
        space = tree_window(2, 11)
        cover = build_tree_tails(space)
        calls = count_searches(space, monkeypatch)
        report = verify_tail_cover(cover, space)
        assert report.passed and report.measured_step == 1
        assert calls == []

    def test_one_jump_runs_one_search(self, monkeypatch):
        space = tree_window(2, 11)
        cover = build_tree_tails(space)
        leaf = cover.tails[0][-1]
        jumped = TailCover(tails={**cover.tails, 0: (0, leaf)}, r=cover.r, K=cover.K)
        calls = count_searches(space, monkeypatch)
        report = verify_tail_cover(jumped, space)
        assert calls == [((0,),)]
        assert report.step_violations == [(0, 0, Fraction(11))]
        assert report.measured_step == 11

    def test_self_loop_step_has_length_0(self, monkeypatch):
        # x = 1 lists itself among its graph neighbours, yet the step 1 -> 1
        # has length 0: it is searched, as the oracle measures it
        space = space_from_json({"points": 3, "frontier": [2], "label": "loop", "metric": {
            "type": "graph", "edges": [[0, 1, "1/1"], [1, 1, "1/1"], [1, 2, "1/1"]]}})
        assert space.unit_weights and 1 in space.graph_neighbors[1]
        cover = TailCover(tails={0: (0, 1, 1, 2), 1: (1, 2), 2: (2,)}, r=Fraction(1), K=3)
        calls = count_searches(space, monkeypatch)
        report = verify_tail_cover(cover, space)
        assert calls == [((1,),)]
        assert report == verify_tail_cover_by_steps(cover, space)
        assert report.distinct_violations == [0] and report.step_violations == []
        assert report.measured_K == 3


class TestCheckCoverOnSpace:
    """The transport stage's check: a ConfigError naming the first failed
    invariant, in the report's order."""

    @pytest.mark.parametrize("tails, K, message", [
        ({0: (0, 1, 2, 3, 4, 5), 1: (2, 3, 4, 5)}, 9, "the tail of point 1 does not start there"),
        ({0: (0, 1, 0, 1, 2, 3, 4, 5)}, 9, "the tail of point 0 repeats a point"),
        ({0: (0, 2, 3, 4, 5)}, 9, "step 0 of the tail of point 0 has length 2/1, more than r = 1/1"),
        ({}, 2, "point 2 lies on 3 tails, more than K = 2"),
        ({0: (0, 1, 2, 3, 4, 5), 2: (2, 3)}, 9, "the tail of point 2 does not end on the frontier"),
    ], ids=["start", "repeat", "step", "multiplicity", "frontier"])
    def test_first_violation_named(self, tails, K, message):
        # every other point has its rightward tail, so no tail is missing
        tails = {**{x: tuple(range(x, 6)) for x in range(6)}, **tails}
        cover = TailCover(tails=tails, r=Fraction(1), K=K)
        with pytest.raises(ConfigError) as info:
            check_cover_on_space(cover, grid_window(1, 0, 5))
        assert str(info.value) == message

    def test_built_covers_pass(self):
        for t in (tree_window(2, 5), tree_window(3, 3)):
            check_cover_on_space(build_tree_tails(t), t)


class TestPartialCovers:
    """A cover that leaves a point of the space without a tail fails: the
    point is a start violation, as its (missing) tail does not start there."""

    @pytest.mark.parametrize("drop, missing", [(None, list(range(15))), (0, [0]), (6, [6])],
                             ids=["empty", "point-0", "point-6"])
    def test_missing_tails_fail(self, drop, missing):
        space = tree_window(2, 3)
        tails = {} if drop is None else {
            x: seq for x, seq in build_tree_tails(space).tails.items() if x != drop}
        cover = TailCover(tails=tails, r=Fraction(1), K=2)
        report = verify_tail_cover(cover, space)
        assert not report.passed and report.start_violations == missing
        assert report == verify_tail_cover_by_steps(cover, space)
        with pytest.raises(ConfigError) as info:
            check_cover_on_space(cover, space)
        assert str(info.value) == f"cover has no tail for point {missing[0]}"

    def test_missing_and_wrong_starts_sorted_together(self):
        space = grid_window(1, 0, 5)
        cover = TailCover(tails={x: tuple(range(x, 6)) for x in (0, 1, 3, 5)} | {4: (5,)},
                          r=Fraction(1), K=9)
        assert verify_tail_cover(cover, space).start_violations == [2, 4]
        with pytest.raises(ConfigError) as info:
            check_cover_on_space(cover, space)
        assert str(info.value) == "cover has no tail for point 2"


class TestBuildTreeTails:
    def test_binary_tree_depth3(self):
        t = tree_window(2, 3)
        cover = build_tree_tails(t)
        report = verify_tail_cover(cover, t)
        assert report.passed
        assert report.measured_K <= 2

    def test_path_raises_branching_too_low(self):
        with pytest.raises(BranchingTooLow):
            build_tree_tails(tree_window(1, 5))

    def test_needs_a_generated_tree(self):
        with pytest.raises(ValueError) as info:
            build_tree_tails(grid_window(1, 0, 6))
        assert str(info.value) == ("space carries no rooted-tree structure; "
                                   "build_tree_tails needs a generated tree window")

    def test_leaf_off_the_frontier_rejected(self):
        t = tree_window(2, 2)  # leaves 3..6
        inner = WindowSpace(t.n, frontier=t.frontier - {5}, meta=t.meta,
                            adjacency=[[(y, 1) for y in nb] for nb in t.graph_neighbors])
        with pytest.raises(ValueError) as info:
            build_tree_tails(inner)
        assert str(info.value) == "leaf 5 is not on the frontier; tails cannot escape there"

    def test_ternary_tree_depth4(self):
        t = tree_window(3, 4)
        cover = build_tree_tails(t)
        report = verify_tail_cover(cover, t)
        assert report.passed
        assert report.measured_K <= 2
        depth = t.meta["depths"]
        for x, seq in cover.tails.items():
            assert seq[0] == x
            assert seq[-1] in t.frontier
            # outward routing: depth increases by one per step
            for a, b in zip(seq, seq[1:]):
                assert depth[b] == depth[a] + 1

    def test_regular_tree_load(self):
        from folnerflow import regular_tree_window
        t = regular_tree_window(3, 6)
        cover = build_tree_tails(t)
        assert verify_tail_cover(cover, t).measured_K <= 2

    def test_deterministic(self):
        t = tree_window(2, 5)
        assert build_tree_tails(t).tails == build_tree_tails(t).tails


def chain_cover():
    # M=2 example shape: tails t^x = (x, c(x), c^2(x)) with c(x) = x + 1
    space = grid_window(1, 0, 9)
    tails = {x: tuple(range(x, 10)) for x in range(10)}
    return space, TailCover(tails=tails, r=Fraction(1), K=10)


class TestTransport:
    def test_top_level_lands_at_index(self):
        space, cover = chain_cover()
        M = 3
        fam = MultisetFamily(
            sets={x: frozenset({(x, M)}) for x in range(5)},
            M=M,
            params=FamilyParams(R=1, epsilon=Fraction(1, 2), S=0, M=M),
        )
        out = tail_transport(fam, cover, space)
        for x in range(5):
            assert out.chains[x].support() == {x}

    def test_level_zero_walks_M_steps(self):
        space, cover = chain_cover()
        fam = MultisetFamily(
            sets={3: frozenset({(3, 0)})},
            M=2,
            params=FamilyParams(R=1, epsilon=Fraction(1, 2), S=0, M=2),
        )
        out = tail_transport(fam, cover, space)
        assert out.chains[3].support() == {5}  # t^3_2 = 3 + 2

    def test_radius_bound(self):
        space, cover = chain_cover()
        rng = random.Random(5)
        M, S = 2, 3
        sets = {}
        for x in range(4, 7):
            elems = set()
            for _ in range(4):
                y = rng.randint(max(0, x - S), min(7, x + S))
                elems.add((y, rng.randint(0, M)))
            sets[x] = frozenset(elems)
        fam = MultisetFamily(
            sets=sets, M=M, params=FamilyParams(R=1, epsilon=1, S=S, M=M)
        )
        out = tail_transport(fam, cover, space)
        bound = M * cover.r + S
        assert out.params.S == bound
        for x, c in out.chains.items():
            for z in c.support():
                assert space.dist(x, z) <= bound

    def test_point_without_a_tail(self):
        with pytest.raises(ValueError) as info:
            transport_set(TailCover(tails={9: (9,)}, r=Fraction(1), K=1), {(9, 1), (8, 0)}, 1)
        assert str(info.value) == "cover has no tail for point 8"

    def test_tail_too_short(self):
        space, cover = chain_cover()
        fam = MultisetFamily(
            sets={8: frozenset({(9, 0)})},  # needs t^9_2 but the tail is (9,)
            M=2,
            params=FamilyParams(R=1, epsilon=1, S=2, M=2),
        )
        with pytest.raises(TailTooShort) as exc:
            tail_transport(fam, cover, space)
        assert exc.value.index == 8
        assert exc.value.tail_of == 9

    def test_compression_bound_randomized(self):
        # |Z| <= K * |image of Z| for any finite Z
        t = tree_window(2, 7)
        cover = build_tree_tails(t)
        K = verify_tail_cover(cover, t).measured_K
        depths = t.meta["depths"]
        eligible = [v for v in range(t.n) if depths[v] <= 4]
        rng = random.Random(11)
        M = 2
        for _ in range(300):
            Z = {(rng.choice(eligible), rng.randint(0, M))
                 for _ in range(rng.randint(1, 25))}
            img = transport_set(cover, Z, M)
            assert len(Z) <= K * len(img)

    def test_set_operations_transfer(self):
        # transported differences embed in transported set differences, and
        # intersections shrink by at most K
        t = tree_window(2, 7)
        cover = build_tree_tails(t)
        K = verify_tail_cover(cover, t).measured_K
        depths = t.meta["depths"]
        eligible = [v for v in range(t.n) if depths[v] <= 4]
        rng = random.Random(13)
        M = 2
        for _ in range(300):
            A = {(rng.choice(eligible), rng.randint(0, M))
                 for _ in range(rng.randint(1, 20))}
            B = {(rng.choice(eligible), rng.randint(0, M))
                 for _ in range(rng.randint(1, 20))}
            TA, TB = transport_set(cover, A, M), transport_set(cover, B, M)
            assert TA - TB <= transport_set(cover, A - B, M) if A - B else TA <= TB
            assert len(TA ^ TB) <= len(A ^ B)
            assert K * len(TA & TB) >= len(A & B)


class TestSerialization:
    def test_round_trip(self):
        t = tree_window(2, 4)
        cover = build_tree_tails(t)
        doc = cover_to_json(cover)
        back = cover_from_json(doc)
        assert back.tails == cover.tails
        assert back.r == cover.r and back.K == cover.K
        assert cover_to_json(back) == doc

    def test_zero_r_loads(self):
        doc = cover_to_json(build_tree_tails(tree_window(2, 3)))
        doc["r"] = "0"
        assert cover_from_json(doc).r == 0

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["tails"].append([3, [3]]), "tail cover tails lists 3 twice"),
        (lambda d: d["tails"].append(["3", [3]]), "tail cover tails[15][0] must be an int, got '3'"),
        (lambda d: d["tails"].append([True, [1]]),
         "tail cover tails[15][0] must be an int, got True"),
        (lambda d: d["tails"][2].__setitem__(1, "2,5"),
         "tail cover tails[2][1] must be a list, got '2,5'"),
        (lambda d: d["tails"][2][1].append(5.0), "tail cover tails[2][1][3] must be an int, got 5.0"),
        (lambda d: d.update(tails={}), "tail cover tails must be a list, got {}"),
        (lambda d: d.update(K="2"), "tail cover K must be a positive int, got '2'"),
        (lambda d: d.update(K=True), "tail cover K must be a positive int, got True"),
        (lambda d: d.update(K=0), "tail cover K must be a positive int, got 0"),
        (lambda d: d.update(K=1.5), "tail cover K must be a positive int, got 1.5"),
        (lambda d: d.update(r="-1/2"), "tail cover r must be a rational >= 0, got '-1/2'"),
        (lambda d: d.update(r=-1), "tail cover r must be a rational >= 0, got -1"),
        (lambda d: d.pop("r"), "tail cover is missing 'r'"),
    ], ids=["point-twice", "point-not-int", "point-bool", "tail-not-list",
            "tail-entry-not-int", "tails-an-object", "K-string", "K-bool", "K-zero", "K-float",
            "r-negative", "r-negative-int", "r-missing"])
    def test_malformed_cover_rejected(self, mutate, message):
        doc = cover_to_json(build_tree_tails(tree_window(2, 3)))
        mutate(doc)
        with pytest.raises(ConfigError, match=re.escape(message)):
            cover_from_json(doc)
