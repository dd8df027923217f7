"""Tail covers: verification, the greedy tree builder, and transport."""

import random
import re
from fractions import Fraction

import pytest

from folnerflow import (
    BranchingTooLow,
    FamilyParams,
    MultisetFamily,
    TailCover,
    TailTooShort,
    build_tree_tails,
    grid_window,
    tail_transport,
    transport_set,
    tree_window,
    verify_tail_cover,
)
from folnerflow.errors import ConfigError
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
        assert report.start_violations == [1]
        assert report.frontier_violations == [2]
        assert (5, 3) not in report.multiplicity_violations  # 2 tails end at 5... third is short
        assert any(z == 2 for z, _c in report.multiplicity_violations)


class TestCheckCoverOnSpace:
    """The transport stage's check: a ConfigError naming the first failed
    invariant, in the report's order."""

    @pytest.mark.parametrize("tails, K, message", [
        ({0: (0, 1, 2, 3, 4, 5), 1: (2, 3, 4, 5)}, 2, "the tail of point 1 does not start there"),
        ({0: (0, 1, 0, 1, 2, 3, 4, 5)}, 9, "the tail of point 0 repeats a point"),
        ({0: (0, 2, 3, 4, 5)}, 2, "step 0 of the tail of point 0 has length 2/1, more than r = 1/1"),
        ({x: tuple(range(x, 6)) for x in range(3)}, 2, "point 2 lies on 3 tails, more than K = 2"),
        ({0: (0, 1, 2, 3, 4, 5), 2: (2, 3)}, 2, "the tail of point 2 does not end on the frontier"),
    ], ids=["start", "repeat", "step", "multiplicity", "frontier"])
    def test_first_violation_named(self, tails, K, message):
        cover = TailCover(tails=tails, r=Fraction(1), K=K)
        with pytest.raises(ConfigError) as info:
            check_cover_on_space(cover, grid_window(1, 0, 5))
        assert str(info.value) == message

    def test_built_covers_pass(self):
        for t in (tree_window(2, 5), tree_window(3, 3)):
            check_cover_on_space(build_tree_tails(t), t)


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

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["tails"].append([3, [3]]), "tail cover lists point 3 twice"),
        (lambda d: d["tails"].append(["3", [3]]), "tail cover point '3' is not an int id"),
        (lambda d: d["tails"].append([True, [1]]), "tail cover point True is not an int id"),
        (lambda d: d["tails"][2].__setitem__(1, "2,5"),
         "the tail of point 2 is not a list of int ids: '2,5'"),
        (lambda d: d["tails"][2][1].append(5.0),
         "the tail of point 2 is not a list of int ids"),
        (lambda d: d.update(K="2"), "tail cover K must be a positive int, got '2'"),
        (lambda d: d.update(K=True), "tail cover K must be a positive int, got True"),
        (lambda d: d.update(K=0), "tail cover K must be a positive int, got 0"),
        (lambda d: d.update(K=1.5), "tail cover K must be a positive int, got 1.5"),
    ], ids=["point-twice", "point-not-int", "point-bool", "tail-not-list",
            "tail-entry-not-int", "K-string", "K-bool", "K-zero", "K-float"])
    def test_malformed_cover_rejected(self, mutate, message):
        doc = cover_to_json(build_tree_tails(tree_window(2, 3)))
        mutate(doc)
        with pytest.raises(ConfigError, match=re.escape(message)):
            cover_from_json(doc)
