"""Chain lattice algebra, ratios, multiset collapse, family verification."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (add, count_searches, floyd_warshall, graph_space, in_range_pairs, join,
                      l1_distance, leq, meet, mixed_families, rational_graphs, scale, set_ratio,
                      setminus, unit_graphs)
from folnerflow import (
    Chain,
    ConfigError,
    FamilyParams,
    INFINITE_RATIO,
    IndexedFamily,
    MultisetFamily,
    base_and_towers,
    WindowSpace,
    ball_family,
    family_from_multisets,
    generate,
    grid_window,
    ratio,
    singleton_family,
    tent_family,
    verify_family,
)
from folnerflow.chains import (FamilyReport, _in_range, _terms, family_from_json,
                               family_to_json, load_family, multiset_family_from_json)
from folnerflow.families import perturbed_cluster_family
from folnerflow.jsonio import dump_json
from folnerflow.space import space_from_json, space_to_json

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
        space, params = grid_window(1, 0, 2), FamilyParams(R=1, epsilon=1, S=2).to_json()
        with pytest.raises(ConfigError) as info:
            family_from_json({"params": params, "chains": [[0, {"weights": [[0, True]]}]]}, space)
        assert str(info.value) == ("family file chains[0][1].weights[0][1] must be a positive "
                                   "int, got True")
        doc = {"params": params, "chains": [[0, {"weights": [[0, 1]]}]]}
        assert family_from_json(doc, space).chains[0] == Chain({0: 1})

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


class TestChainProtocol:
    @given(chains, st.integers(min_value=0, max_value=12))
    def test_membership_is_the_support(self, a, x):
        """`Mapping`'s own `in` asks `__getitem__`, which answers 0 for an
        absent point rather than raising, so it would hold every point."""
        assert (x in a) == (a[x] > 0) == (x in a.support())

    def test_never_equal_to_a_non_chain(self):
        a = Chain({0: 3, 2: 1})
        assert a != {0: 3, 2: 1}
        assert not a == {0: 3, 2: 1}
        assert a == Chain({2: 1, 0: 3})

    def test_repr_lists_the_support_in_id_order(self):
        assert repr(Chain({2: 1, 0: 3})) == "Chain({0: 3, 2: 1})"
        assert repr(Chain()) == "Chain({})"

    def test_window_repr(self):
        assert repr(grid_window(1, 0, 4)) == "WindowSpace(n=5, label='grid1d[0..4]')"


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
        with pytest.raises(ConfigError, match=re.escape(f"family params {message}")):
            FamilyParams.from_json({"R": "1", "epsilon": "1", "S": "2", "M": M})

    def test_exact_values_kept(self):
        p = FamilyParams(R=Fraction(3, 2), epsilon=1, S=0, M=2)
        assert (p.R, p.epsilon, p.S) == (Fraction(3, 2), 1, 0)
        assert all(type(v) is Fraction for v in (p.R, p.epsilon, p.S))


PARAMS = FamilyParams(R=1, epsilon=1, S=2, M=1)


class TestMalformedFamilies:
    """A family that breaks its definition is refused, naming the index."""

    @pytest.mark.parametrize("build, message", [
        (lambda: IndexedFamily(space=grid_window(1, 0, 2), chains={1: Chain()}, params=PARAMS),
         "family chain at index 1 is empty"),
        (lambda: MultisetFamily(sets={2: frozenset()}, M=1, params=PARAMS),
         "multiset family entry at 2 is empty"),
        (lambda: MultisetFamily(sets={0: frozenset({(0, 2)})}, M=1, params=PARAMS),
         "entry at 0 has level 2 outside 0..1"),
        (lambda: perturbed_cluster_family(grid_window(1, 0, 20), random.Random(1), M=0,
                                          centers=[10], cluster_radius=3, core_radius=1,
                                          base_size=4, R=1, epsilon=1),
         "need base_size >= 5 for a nontrivial guarantee"),
        (lambda: perturbed_cluster_family(grid_window(1, 0, 20), random.Random(1), M=0,
                                          centers=[10], cluster_radius=2, core_radius=1,
                                          base_size=5, R=1, epsilon=1),
         "cluster at 10 too small for base_size 5"),
    ], ids=["chain-empty", "multiset-entry-empty", "level-past-M", "cluster-base-size",
            "cluster-too-small"])
    def test_constructors(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("load, message", [
        (lambda: family_from_json({"chains": []}, grid_window(1, 0, 2)),
         "family file is missing 'params'"),
        (lambda: family_from_json({"params": PARAMS.to_json(), "chains": [[1, {"weights": []}]]},
                                  grid_window(1, 0, 2)),
         "family chain at index 1 is empty"),
        (lambda: multiset_family_from_json({"params": PARAMS.to_json(), "sets": []}),
         "multiset family file is missing 'M'"),
    ], ids=["family-params-missing", "family-chain-empty", "multiset-M-missing"])
    def test_files(self, load, message):
        with pytest.raises(ConfigError) as info:
            load()
        assert str(info.value) == message

    def test_chain_family_file_needs_its_space(self, tmp_path):
        space = grid_window(1, 0, 2)
        dump_json(family_to_json(singleton_family(space, 1, 1)), tmp_path / "fam.json")
        assert load_family(tmp_path / "fam.json", space).chains[2] == Chain({2: 1})
        with pytest.raises(ConfigError) as info:
            load_family(tmp_path / "fam.json")
        assert str(info.value) == "loading an indexed family requires its window space"


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


def verify_by_two_searches(fam, require_flat=False):
    """`verify_family` as it ran two searches per index: the pairs of
    `in_range_pairs` (one R-ball search each) and `support_radius` (one
    targeted search each), with every ratio from `ratio`."""
    chains, params = fam.chains, fam.params
    pairs = list(in_range_pairs(fam.space, chains, params.R))
    worst = worst_pair = None
    violations = []
    for x, y in pairs:
        q = ratio(chains[x], chains[y])
        if worst is None or q > worst:
            worst, worst_pair = q, (x, y)
        if not q < params.epsilon:
            violations.append((x, y, q))
    radii = {x: fam.space.support_radius(x, chains[x].keys()) for x in sorted(chains)}
    support = [(x, r) for x, r in radii.items() if r > params.S]
    flat = [x for x in sorted(chains) if not chains[x].is_flat()] if require_flat else []
    return FamilyReport(
        passed=not (violations or support or flat), pair_count=len(pairs),
        worst_ratio=worst, worst_pair=worst_pair, max_support_radius=max(radii.values()),
        ratio_violations=violations, support_violations=support, flat_violations=flat)


@st.composite
def graph_families(draw, graphs):
    """A family on a random graph or on its matrix twin: chains that are
    flat, weighted or singletons {x}, and R and S drawn around the support
    radii, so R falls below, at and above them and S below some."""
    n, edges, _ = draw(graphs)
    D = floyd_warshall(n, edges)
    space = draw(st.sampled_from([graph_space(n, edges), WindowSpace(n, matrix=D)]))
    indices = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=8))
    points = st.integers(0, n - 1)
    if draw(st.booleans()):
        chains = {x: Chain.from_set([x]) for x in indices}
    else:
        chain = st.one_of(st.sets(points, min_size=1, max_size=6).map(Chain.from_set),
                          st.dictionaries(points, st.integers(1, 3), min_size=1,
                                          max_size=6).map(Chain))
        chains = {x: draw(chain) for x in indices}
    radii = sorted({max(D[x][z] for z in c) for x, c in chains.items()})
    L = math.lcm(*(Fraction(w).denominator for _, _, w in edges))
    around = sorted({r for d in radii for r in (d - Fraction(1, 6 * L), d, d + 1) if r >= 0})
    params = FamilyParams(R=draw(st.sampled_from(around)),
                          epsilon=draw(st.sampled_from([Fraction(1, 3), 1, 2])),
                          S=draw(st.sampled_from(around)))
    return IndexedFamily(space=space, chains=chains, params=params)


class TestOneSearchPerIndex:
    """`verify_family` reads each index's in-range partners and support
    radius from one search; the two-search verifier is its reference."""

    @staticmethod
    def check(fam, require_flat):
        report = verify_family(fam, require_flat=require_flat)
        expected = verify_by_two_searches(fam, require_flat)
        assert report == expected
        assert type(report.worst_ratio) is type(expected.worst_ratio)
        assert dump_json(report.to_json()) == dump_json(expected.to_json())
        # the shared pair pass, by R-balls and by `reach`, against the oracle
        space, chains, R = fam.space, fam.chains, fam.params.R
        pairs = list(in_range_pairs(space, chains, R))
        assert list(_in_range(space, chains, R)) == pairs
        radii = {}
        assert list(_in_range(space, chains, R, radii)) == pairs
        assert list(radii) == sorted(chains)
        for x, r in radii.items():  # ints at the space's scale L
            assert type(r) is int
            assert Fraction(r, space._scale) == space.support_radius(x, chains[x].keys())

    @settings(max_examples=150, deadline=None)
    @given(graph_families(unit_graphs()), st.booleans())
    def test_unit_graphs_and_matrix_twins(self, fam, require_flat):
        self.check(fam, require_flat)

    @settings(max_examples=150, deadline=None)
    @given(graph_families(rational_graphs()), st.booleans())
    def test_rational_graphs_and_matrix_twins(self, fam, require_flat):
        self.check(fam, require_flat)

    @staticmethod
    def searches(fam, monkeypatch) -> tuple:
        """(warm, cold): the searches `verify_family(fam)` runs on fam's window
        as it stands, after the searches that built fam, and on a cold twin of
        it, a window that remembers no ball yet."""
        cold = fam._replace(space=space_from_json(space_to_json(fam.space)))
        counts = []
        for f in (fam, cold):
            calls = count_searches(f.space, monkeypatch)
            verify_family(f)
            counts.append(len(calls))
        return tuple(counts)

    @pytest.mark.parametrize("space", [
        grid_window(2, 0, 12),
        generate({"kind": "union", "parts": [{"kind": "grid", "dim": 2, "low": 0, "high": 6}] * 2,
                  "spacing": ["3/2", "5/2"]}),
    ], ids=["unit", "weighted"])
    def test_one_search_per_index_when_supports_reach_beyond_R(self, space, monkeypatch):
        core = sorted(space.ball(space.n // 2, 2))
        fam = ball_family(space, 3, R=Fraction(3, 2), epsilon=1, core=core)
        # the window keeps every ball: on the 13 x 13 grid the 13 radius-3
        # balls of 25 points fit its 624 adjacency entries, on the union the
        # 6 of 11 to 17 points fit its cap; each kept ball holds its
        # support, so its index runs no search
        assert [x for x in core if x in space._balls] == core
        assert len(core) == (13 if space.unit_weights else 6)
        assert self.searches(fam, monkeypatch) == (0, len(core))

    def test_a_family_of_more_than_n_distances_within_the_cap(self, monkeypatch):
        # 25 radius-3 balls on the 7 x 7 x 7 grid hold 1,509 distances: more
        # than its n = 343 points, within its 1,764 adjacency entries
        space = grid_window(3, 0, 6)
        core = sorted(space.ball(space.n // 2, 2))
        fam = ball_family(space, 3, R=Fraction(3, 2), epsilon=1, core=core)
        assert (len(core), space.n, space._cap, space._held) == (25, 343, 1764, 1509)
        cold = fam._replace(space=space_from_json(space_to_json(space)))
        assert self.searches(fam, monkeypatch) == (0, 25)
        assert dump_json(verify_family(fam).to_json()) == dump_json(verify_family(cold).to_json())

    def test_at_most_two_searches_per_index_otherwise(self, monkeypatch):
        space = grid_window(2, 0, 12)
        core = sorted(space.ball(space.n // 2, 2))
        # radius-1 balls and singletons: supports within R = 2 of their index;
        # warm, the kept radius-1 ball gives the radius and the R-ball is
        # searched, but at the centre, whose R-ball the core was read from;
        # then those R-balls (13 of 13 points in 169 distances) answer the
        # singletons' radius and R-ball both
        fam = ball_family(space, 1, R=2, epsilon=1, core=core)
        assert self.searches(fam, monkeypatch) == (len(core) - 1, 2 * len(core))
        fam = singleton_family(space, R=2, epsilon=1, core=core)
        assert self.searches(fam, monkeypatch) == (0, 2 * len(core))
        mixed = IndexedFamily(space=space, params=FamilyParams(R=1, epsilon=1, S=3), chains={
            x: Chain.from_set(space.ball(x, 1 + x % 2)) for x in core})
        # warm, each index's radius-2 ball, kept from the singletons, holds
        # its support and has its R-ball as a prefix: no search
        warm, cold = self.searches(mixed, monkeypatch)
        assert len(core) < cold < 2 * len(core)
        assert warm == 0

    def test_one_search_per_index_on_a_matrix(self, monkeypatch):
        # a matrix is searched as its complete graph: radius-2 balls reach
        # beyond R = 1; all 6 five-point balls fit its 90 adjacency entries
        line = grid_window(1, 0, 9)
        space = WindowSpace(10, matrix=[[line.dist(x, y) for y in range(10)] for x in range(10)])
        fam = ball_family(space, 2, R=1, epsilon=1, core=range(2, 8))
        assert (list(space._balls), space._cap) == ([2, 3, 4, 5, 6, 7], 90)
        assert self.searches(fam, monkeypatch) == (0, 6)
        assert verify_family(fam) == verify_family(
            ball_family(line, 2, R=1, epsilon=1, core=range(2, 8)))


class TestRememberedBalls:
    """A window that remembers the balls of earlier families and `ball` calls
    answers `verify_family`, `reach` and `support_radius` exactly as a cold
    twin that remembers none: the same reports, to the byte, and the same
    near points in the same order."""

    @staticmethod
    def check(fam, require_flat, data):
        def twin():  # the window of fam, built again and cold
            return space_from_json(space_to_json(fam.space))

        space = twin()
        n, params = space.n, fam.params
        points = st.lists(st.integers(0, n - 1), min_size=1, max_size=8)
        radii = st.sampled_from(sorted({0, 1, 2, 3, params.R, params.S}))
        ball_family(space, data.draw(radii), R=params.R, epsilon=1, core=data.draw(points))
        if space._scale == 1:  # a tent needs integer distances
            tent_family(space, data.draw(st.integers(1, 4)), R=params.R, epsilon=1,
                        core=data.draw(points))
        for x in data.draw(points):
            space.ball(x, data.draw(radii))
        warm = fam._replace(space=space)
        assert dump_json(verify_family(warm, require_flat).to_json()) == dump_json(
            verify_family(fam._replace(space=twin()), require_flat).to_json())
        for x, chain in fam.chains.items():
            for R in (0, params.R, params.S, data.draw(radii)):
                assert space.reach(x, chain.keys(), R) == twin().reach(x, chain.keys(), R)
            assert space.support_radius(x, chain.keys()) == twin().support_radius(x, chain.keys())

    @settings(max_examples=100, deadline=None)
    @given(graph_families(unit_graphs()), st.booleans(), st.data())
    def test_unit_graphs_and_matrix_twins(self, fam, require_flat, data):
        self.check(fam, require_flat, data)

    @settings(max_examples=100, deadline=None)
    @given(graph_families(rational_graphs()), st.booleans(), st.data())
    def test_rational_graphs_and_matrix_twins(self, fam, require_flat, data):
        self.check(fam, require_flat, data)
