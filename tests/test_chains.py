"""Chain lattice algebra, ratios, multiset collapse, family verification."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (add, join, l1_distance, leq, meet, mixed_families, scale, set_ratio,
                      setminus)
from folnerflow import (
    Chain,
    ConfigError,
    FamilyParams,
    INFINITE_RATIO,
    IndexedFamily,
    MultisetFamily,
    base_and_towers,
    ball_family,
    family_from_multisets,
    grid_window,
    ratio,
    verify_family,
)
from folnerflow.chains import _terms, chain_from_json, in_range_pairs

chains = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=9),
    max_size=8,
).map(Chain)
flat_chains = st.sets(st.integers(min_value=0, max_value=12), max_size=8).map(Chain.from_set)
# weights 1 and 2: a chain one unit away from flat
near_flat_chains = st.dictionaries(
    st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=2), max_size=8,
).map(Chain)
any_chains = st.one_of(flat_chains, near_flat_chains, chains)


class TestLatticeOps:
    def test_setminus(self):
        a, b = Chain({0: 3}), Chain({0: 1})
        assert setminus(a, b) == Chain({0: 2})

    def test_identities_on_self(self):
        a = Chain({0: 3, 4: 1})
        assert meet(a, a) == a
        assert setminus(a, a) == Chain()

    def test_distance_and_meet(self):
        a, b = Chain({0: 2, 1: 1}), Chain({1: 3, 2: 1})
        # pointwise arithmetic: |2-0| + |1-3| + |0-1|
        assert l1_distance(a, b) == 5
        assert meet(a, b).l1() == 1

    def test_join(self):
        a, b = Chain({0: 2, 1: 1}), Chain({1: 3, 2: 1})
        assert join(a, b) == Chain({0: 2, 1: 3, 2: 1})

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            Chain({0: -1})
        with pytest.raises(ValueError):
            Chain({0: 1.5})

    def test_rejects_bool_weights(self):
        with pytest.raises(ValueError, match="must be an int"):
            Chain({0: True})

    def test_json_loader_rejects_bool_weights(self):
        with pytest.raises(ConfigError, match="bad chain"):
            chain_from_json({"weights": [[0, True]]})
        assert chain_from_json({"weights": [[0, 1]]}) == Chain({0: 1})

    def test_zero_weights_dropped(self):
        assert Chain({0: 0, 1: 2}) == Chain({1: 2})

    @given(a=chains, b=chains)
    def test_distance_splits_into_one_sided_parts(self, a, b):
        assert l1_distance(a, b) == setminus(a, b).l1() + setminus(b, a).l1()

    @given(a=chains, b=chains)
    def test_meet_plus_setminus_reassembles(self, a, b):
        assert add(meet(a, b), setminus(a, b)) == a

    @given(a=chains, b=chains)
    def test_meet_join_are_bounds(self, a, b):
        m, j = meet(a, b), join(a, b)
        assert leq(m, a) and leq(m, b)
        assert leq(a, j) and leq(b, j)


class TestBaseAndTowers:
    @pytest.mark.parametrize("w,base,towers", [
        ({0: 3, 1: 1}, {0: 1, 1: 1}, {0: 2}),
        ({0: 1, 7: 1}, {0: 1, 7: 1}, {}),
        ({5: 7}, {5: 1}, {5: 6}),
    ])
    def test_examples(self, w, base, towers):
        b, t = base_and_towers(Chain(w))
        assert b == Chain(base)
        assert t == Chain(towers)

    @given(a=chains)
    def test_split_reassembles(self, a):
        b, t = base_and_towers(a)
        assert add(b, t) == a
        assert b.is_flat()


class TestRatio:
    def test_set_case(self):
        A, B = Chain.from_set({0, 1, 2}), Chain.from_set({1, 2, 3})
        assert ratio(A, B) == Fraction(1)

    def test_identical(self):
        a = Chain({3: 2, 4: 1})
        assert ratio(a, a) == 0

    def test_disjoint_supports(self):
        assert ratio(Chain({0: 1}), Chain({1: 1})) == INFINITE_RATIO
        assert not (ratio(Chain({0: 1}), Chain({1: 1})) < Fraction(10 ** 9))

    @given(a=chains, b=chains)
    def test_matches_meet_and_distance(self, a, b):
        # the one-pass meet and ||a-b|| = ||a|| + ||b|| - 2||a^b|| against
        # the pointwise meet / l1_distance definitions
        den = meet(a, b).l1()
        expected = INFINITE_RATIO if den == 0 else Fraction(l1_distance(a, b), den)
        assert ratio(a, b) == expected

    @given(a=chains, b=chains)
    def test_symmetry(self, a, b):
        assert ratio(a, b) == ratio(b, a)

    @given(a=chains, b=chains, k=st.integers(min_value=1, max_value=5))
    def test_scaling_invariance(self, a, b, k):
        assert ratio(scale(a, k), scale(b, k)) == ratio(a, b)


class TestFamilyParams:
    @pytest.mark.parametrize("field", ["R", "epsilon", "S"])
    @pytest.mark.parametrize("bad", [0.1, 1.0, True, -1, "1"])
    def test_rejects_floats_bools_and_negatives(self, field, bad):
        kwargs = {"R": 1, "epsilon": Fraction(1, 2), "S": 2, field: bad}
        with pytest.raises(ValueError, match=field):
            FamilyParams(**kwargs)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            FamilyParams(R=1, epsilon=0, S=2)

    @pytest.mark.parametrize("M", [Fraction(3, 2), 1.5, 1.0, True, "1", -1])
    def test_M_must_be_an_int(self, M):
        message = f"M must be an int >= 0, got {M!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            FamilyParams(R=1, epsilon=1, S=2, M=M)
        with pytest.raises(ValueError, match=re.escape(message)):
            MultisetFamily(sets={0: frozenset({(0, 0)})}, M=M,
                           params=FamilyParams(R=1, epsilon=1, S=2))
        with pytest.raises(ConfigError, match=re.escape(f"bad family params: {message}")):
            FamilyParams.from_json({"R": "1", "epsilon": "1", "S": "2", "M": M})

    def test_exact_values_kept(self):
        p = FamilyParams(R=Fraction(3, 2), epsilon=1, S=0, M=2)
        assert (p.R, p.epsilon, p.S) == (Fraction(3, 2), 1, 0)
        assert all(type(v) is Fraction for v in (p.R, p.epsilon, p.S))


class TestFamilyFromMultisets:
    def setup_method(self):
        self.space = grid_window(1, 0, 19)
        self.params = FamilyParams(R=1, epsilon=1, S=20, M=5)

    def test_column_collapse(self):
        fam = family_from_multisets(
            self.space, {0: {(3, 0), (3, 3)}}, self.params
        )
        assert fam.chains[0] == Chain({3: 2})

    def test_distinct_columns(self):
        fam = family_from_multisets(
            self.space, {0: {(3, 0), (4, 1)}}, self.params
        )
        assert fam.chains[0] == Chain({3: 1, 4: 1})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            family_from_multisets(self.space, {0: set()}, self.params)

    def test_counting_inequalities_randomized(self):
        # the collapse can only shrink symmetric differences and grow meets
        rng = random.Random(77)
        pts = list(range(20))
        for _ in range(200):
            A = {(rng.choice(pts), rng.randrange(6)) for _ in range(rng.randint(1, 15))}
            B = {(rng.choice(pts), rng.randrange(6)) for _ in range(rng.randint(1, 15))}
            fam = family_from_multisets(self.space, {0: A, 2: B}, self.params)
            a, b = fam.chains[0], fam.chains[2]
            assert l1_distance(a, b) <= len(A ^ B)
            assert meet(a, b).l1() >= len(A & B)


class TestVerifyFamily:
    def test_ball_family_worst_ratio(self):
        # oracle: adjacent closed balls of radius 10 on the integer line are
        # 21-point intervals overlapping in 20 points, differing in 2
        space = grid_window(1, -40, 40)
        core = [x for x in range(space.n) if 10 <= x <= 70]
        A = {x: set(range(x - 10, x + 11)) for x in core}
        worst = max(set_ratio(A[x], A[x + 1]) for x in core[:-1])
        assert worst == Fraction(2, 20)

        fam = ball_family(space, 10, R=1, epsilon=Fraction(1, 4), core=core)
        report = verify_family(fam)
        assert report.worst_ratio == worst == Fraction(1, 10)
        assert report.passed

    def test_constant_family(self):
        space = grid_window(1, 0, 9)
        c = Chain.from_set({4, 5})
        fam = IndexedFamily(
            space=space,
            chains={x: c for x in range(4, 7)},
            params=FamilyParams(R=1, epsilon=Fraction(1, 2), S=3),
        )
        report = verify_family(fam)
        assert report.worst_ratio == 0
        assert report.passed

    def test_empty_intersection_flagged_infinite(self):
        space = grid_window(1, 0, 9)
        fam = IndexedFamily(
            space=space,
            chains={4: Chain.from_set({4}), 5: Chain.from_set({5})},
            params=FamilyParams(R=1, epsilon=Fraction(1, 2), S=0),
        )
        report = verify_family(fam)
        assert not report.passed
        assert report.worst_ratio == INFINITE_RATIO
        assert report.ratio_violations == [(4, 5, INFINITE_RATIO)]

    def test_support_radius_and_flat_checks(self):
        space = grid_window(1, 0, 9)
        fam = IndexedFamily(
            space=space,
            chains={4: Chain({4: 2, 6: 1})},
            params=FamilyParams(R=1, epsilon=1, S=1),
        )
        report = verify_family(fam, require_flat=True)
        assert report.support_violations == [(4, Fraction(2))]
        assert report.flat_violations == [4]
        assert not report.passed

    def test_report_is_deterministic_and_serializable(self):
        space = grid_window(1, 0, 20)
        fam = ball_family(space, 2, R=2, epsilon=Fraction(1, 10),
                          core=range(5, 16))
        r1 = verify_family(fam).to_json()
        r2 = verify_family(fam).to_json()
        assert r1 == r2
        assert isinstance(r1["worst_ratio"], str)


class TestIntTerms:
    """The passes compare int terms; `ratio` and the pointwise lattice are
    their reference."""

    @given(a=any_chains, b=any_chains)
    def test_terms_match_pointwise_lattice(self, a, b):
        # both flat: the meet is the support intersection; else the general loop
        assert _terms(a, b) == (l1_distance(a, b), meet(a, b).l1())

    @given(a=any_chains)
    def test_is_flat_means_every_weight_is_one(self, a):
        assert a.is_flat() == all(v == 1 for v in a.values())

    @settings(max_examples=200, deadline=None)
    @given(fam=mixed_families(grid_window(1, 0, 11), range(12)))
    def test_verify_family_matches_ratio_loop(self, fam):
        worst = worst_pair = None
        violations = []
        for x, y in in_range_pairs(fam.space, fam.chains, fam.params.R):
            q = ratio(fam.chains[x], fam.chains[y])
            if worst is None or q > worst:
                worst, worst_pair = q, (x, y)
            if not q < fam.params.epsilon:
                violations.append((x, y, q))
        report = verify_family(fam)
        assert (report.worst_ratio, report.worst_pair) == (worst, worst_pair)
        assert type(report.worst_ratio) is type(worst)
        assert report.ratio_violations == violations

    def test_ratio_equal_to_epsilon_is_a_violation(self):
        # adjacent 5-point balls differ in 2 points and share 4: ratio 1/2
        fam = ball_family(grid_window(1, 0, 20), 2, R=1, epsilon=Fraction(1, 2), core=[9, 10])
        assert verify_family(fam).ratio_violations == [(9, 10, Fraction(1, 2))]
