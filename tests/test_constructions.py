"""Boundaries, Folner witnesses, translate families, coarse transfer, boxes."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    bfs_all_pairs,
    dist_matrix,
    foelner_search_by_balls,
    graph_space,
    rational_graphs,
    space_adjacency_sets,
    unit_graphs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerflow import (
    Chain,
    CoarseMapModel,
    FamilyParams,
    INFINITE_RATIO,
    IndexedFamily,
    TranslateEscapesWindow,
    WindowSpace,
    WindowTooSmall,
    boundary,
    box_family,
    build_box_space,
    cycle_window,
    foelner_search,
    grid_window,
    group_foelner_family,
    product_with_interval,
    project_family,
    pushforward_injective,
    ratio,
    subspace,
    tree_window,
    verify_family,
)
from folnerflow.constructions import check_moduli


def coord_ids(space, lo, hi):
    index = space.meta["coord_index"]
    return [index[(c,)] for c in range(lo, hi + 1)]


class TestBoundary:
    def test_interval_on_line(self):
        space = grid_window(1, -50, 49)
        U = coord_ids(space, 0, 9)
        b = boundary(space, U, 1)
        assert b == frozenset(coord_ids(space, -1, -1) + coord_ids(space, 10, 10))
        assert Fraction(len(b), len(U)) == Fraction(2, 10)

    def test_whole_cycle_has_empty_boundary(self):
        c = cycle_window(9)
        assert boundary(c, range(9), 3) == frozenset()

    def test_empty_set(self):
        assert boundary(cycle_window(9), [], 2) == frozenset()

    def test_disjoint_from_U_and_monotone_in_R(self, rng):
        space = grid_window(2, -4, 4)
        for _ in range(50):
            U = {rng.randrange(space.n) for _ in range(rng.randint(1, 12))}
            b1 = boundary(space, U, 1)
            b2 = boundary(space, U, 2)
            assert not (b1 & U)
            assert b1 <= b2


class TestRadiusValidation:
    @pytest.mark.parametrize("R", [0.1, 1.5, True, -1])
    def test_boundary(self, R):
        with pytest.raises(ValueError, match="radius"):
            boundary(grid_window(1, 0, 9), [3], R)

    @pytest.mark.parametrize("R", [0.1, 1.5, True, -1])
    def test_foelner_search(self, R):
        for space in (grid_window(1, 0, 9), cycle_window(9)):
            with pytest.raises(ValueError, match="radius"):
                foelner_search(space, R, Fraction(1, 4))

    @pytest.mark.parametrize("eps", [0.1, 0.25, True, -1, 0])
    def test_foelner_search_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            foelner_search(grid_window(1, -50, 49), 1, eps)

    @pytest.mark.parametrize("value", [0.1, 1.0, True, -1])
    @pytest.mark.parametrize("name", ["R", "epsilon"])
    def test_box_family(self, name, value):
        args = {"R": 1, "epsilon": Fraction(1, 4), name: value}
        with pytest.raises(ValueError, match=name):
            box_family(build_box_space(4, 5), range(10), args["R"], args["epsilon"])

    @pytest.mark.parametrize("eps", [0, Fraction(0)])
    def test_box_family_epsilon_zero(self, eps):
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            box_family(build_box_space(4, 5), range(10), 1, eps)

    @pytest.mark.parametrize("R", [0.1, 1.0, True, -1])
    def test_pushforward_target_R(self, R):
        space = grid_window(1, 0, 9)
        fam = IndexedFamily(space=space, chains={3: Chain.from_set({3, 4})},
                            params=FamilyParams(R=1, epsilon=1, S=1))
        with pytest.raises(ValueError, match="target_R"):
            pushforward_injective(fam, {x: x for x in range(10)}, space, target_R=R)


def _one_chain_family(space, x, points):
    return IndexedFamily(space=space, chains={x: Chain.from_set(points)},
                         params=FamilyParams(R=1, epsilon=1, S=1))


class TestInputErrors:
    """A construction refuses an input outside its definition, naming it."""

    @pytest.mark.parametrize("call, message", [
        (lambda: group_foelner_family(cycle_window(5), [1], 1, 1),
         "translate families need a grid window (group structure)"),
        (lambda: group_foelner_family(grid_window(2, 0, 3), [1], 1, 1),
         "translate vector (1,) has wrong dimension (need 2)"),
        (lambda: group_foelner_family(grid_window(1, 0, 3), [], 1, 1), "translate set F is empty"),
        (lambda: pushforward_injective(_one_chain_family(grid_window(1, 0, 9), 3, {3, 4}),
                                       {0: 0, 1: 1}, grid_window(1, 0, 9)),
         "map is undefined on family index 3"),
        (lambda: CoarseMapModel.build(grid_window(1, 0, 3), grid_window(1, 0, 3), {0: 0},
                                      [(0, 0)], [(0, 9)]),
         "f must be defined on every point of the domain"),
        (lambda: project_family(grid_window(1, 0, 3),
                                _one_chain_family(grid_window(1, 0, 3), 0, {0})),
         "project_family needs a product-with-interval window"),
        (lambda: project_family(product_with_interval(grid_window(1, 0, 3), 2), _one_chain_family(
            product_with_interval(grid_window(1, 0, 3), 2), 1, {1})),
         "family has no index at level 0 to project"),
        (lambda: build_box_space(1, 3), "need m >= 2, got 1"),
        (lambda: build_box_space(2, 0), "need at least one box, got 0"),
        (lambda: box_family(build_box_space(4, 3), [], 1, Fraction(1, 4)), "Folner set F is empty"),
        (lambda: build_box_space(4.0, 3), "m must be an int, got 4.0"),
        (lambda: build_box_space(4, True), "boxes must be an int, got True"),
    ], ids=["translates-off-a-grid", "translate-dimension", "translates-empty", "map-undefined",
            "coarse-map-partial", "project-off-a-product", "project-no-level-0", "box-m",
            "box-count", "box-F-empty", "box-m-float", "box-count-bool"])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestFoelnerSearch:
    def test_line_window(self):
        space = grid_window(1, -50, 49)  # 100 points
        U = foelner_search(space, 1, Fraction(1, 4))
        assert U is not None
        b = boundary(space, U, 1)
        assert len(b) <= Fraction(1, 4) * len(U)
        assert len(U) >= 8  # 2 <= n/4 forces n >= 8
        fd = space.frontier_distances()
        assert all(fd[u] > 1 for u in U)

    def test_large_epsilon_singleton(self):
        space = grid_window(1, -10, 10)
        U = foelner_search(space, 1, Fraction(2, 1))
        assert U is not None and len(U) == 1

    def test_binary_tree_not_found(self):
        t = tree_window(2, 6)
        assert foelner_search(t, 1, Fraction(1, 4)) is None

    def test_cycle_finds_whole_space(self):
        c = cycle_window(9)
        U = foelner_search(c, 2, Fraction(1, 9))
        assert U == frozenset(range(9))


class TestFoelnerLayerSearch:
    """The layer-count search on unit-weight graphs, an all-ones matrix's
    complete graph among them, against the ball-growing loop, which
    weighted graphs and other matrices still run."""

    @staticmethod
    def assert_same_witness(space, R, eps):
        found, expected = foelner_search(space, R, eps), foelner_search_by_balls(space, R, eps)
        assert found == expected
        assert list(found or ()) == list(expected or ())  # the same ball, in ball order
        return found

    @settings(max_examples=300, deadline=None)
    @given(graph=unit_graphs(),
           R=st.sampled_from([0, Fraction(1, 2), 1, 2, Fraction(5, 2), 3]),
           eps=st.fractions(Fraction(1, 100), 3, max_denominator=100))
    def test_unit_graphs_match_ball_growing(self, graph, R, eps):
        space = graph_space(*graph)
        assert not space._dense and space.unit_weights
        self.assert_same_witness(space, R, eps)

    def test_weighted_graph(self):
        # a path of half-unit edges: R = 1 reaches two steps
        space = graph_space(40, [(x, x + 1, Fraction(1, 2)) for x in range(39)], {0, 39})
        assert space._wts is not None
        assert self.assert_same_witness(space, 1, Fraction(1, 4)) is not None

    def test_matrix_space(self):
        space = subspace(grid_window(1, -30, 30), range(0, 61, 2))
        assert space._dense and not space.unit_weights
        assert space.meta == {"points": list(range(0, 61, 2))}
        ids = np.arange(space.n)  # the points 2i - 30 of the line
        assert (dist_matrix(space) == 2 * abs(ids[:, None] - ids[None, :])).all()
        assert self.assert_same_witness(space, 2, Fraction(1, 3)) is not None

    @pytest.mark.parametrize("n, frontier", [(1, ()), (2, (1,)), (5, ()), (6, (0, 5))])
    @pytest.mark.parametrize("R, eps", [
        (0, Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2)), (1, Fraction(1, 10)), (1, 4)])
    def test_all_ones_matrix(self, n, frontier, R, eps):
        ones = [[int(x != y) for y in range(n)] for x in range(n)]
        space = WindowSpace(n, frontier=frontier, matrix=ones)
        assert space._dense and space.unit_weights
        assert (dist_matrix(space) == np.array(ones)).all()
        self.assert_same_witness(space, R, eps)

    def test_matrix_tree_has_no_witness(self):
        tree = tree_window(2, 5)
        space = subspace(tree, range(tree.n))
        assert space._dense and not space.unit_weights
        assert (dist_matrix(space) == bfs_all_pairs(*space_adjacency_sets(tree))).all()
        assert self.assert_same_witness(space, 1, Fraction(1, 4)) is None


class TestGroupFoelnerFamily:
    def test_interval_translates_worst_ratio(self):
        space = grid_window(1, -50, 49)
        fam = group_foelner_family(space, range(10), 1, Fraction(1, 4))
        report = verify_family(fam, require_flat=True)
        assert report.passed
        assert report.worst_ratio == Fraction(2, 9)
        assert fam.params.S == 9

    def test_singleton_F_reports_infinity(self):
        space = grid_window(1, -10, 10)
        fam = group_foelner_family(space, [0], 1, Fraction(1, 4))
        report = verify_family(fam)
        assert not report.passed
        assert report.worst_ratio == INFINITE_RATIO

    def test_longer_interval(self):
        space = grid_window(1, -60, 60)
        fam = group_foelner_family(space, range(20), 1, Fraction(1, 8))
        report = verify_family(fam)
        assert report.passed
        assert report.worst_ratio == Fraction(2, 19) < Fraction(1, 8)

    def test_translation_invariance_of_ratios(self):
        space = grid_window(2, -6, 6)
        F = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
        fam = group_foelner_family(space, F, 2, Fraction(5, 1))
        index = space.meta["coord_index"]
        by_offset = {}
        for x, y in itertools.combinations(sorted(fam.chains), 2):
            cx, cy = space.meta["coords"][x], space.meta["coords"][y]
            off = tuple(b - a for a, b in zip(cx, cy))
            q = ratio(fam.chains[x], fam.chains[y])
            by_offset.setdefault(off, set()).add(q)
        assert all(len(qs) == 1 for qs in by_offset.values())

    def test_escaping_core_raises(self):
        space = grid_window(1, 0, 5)
        with pytest.raises(TranslateEscapesWindow):
            group_foelner_family(space, range(4), 1, Fraction(1, 2), core=[3])
        with pytest.raises(TranslateEscapesWindow):
            group_foelner_family(space, range(10), 1, Fraction(1, 2))


class TestPushforward:
    def make_family(self, space, core):
        return group_foelner_family(space, range(5), 1, Fraction(1, 2), core=core)

    def test_identity_map(self):
        space = grid_window(1, 0, 20)
        fam = self.make_family(space, core=range(3, 13))
        out = pushforward_injective(fam, {x: x for x in range(space.n)}, space)
        for x in fam.chains:
            assert out.chains[x] == fam.chains[x]

    def test_doubling_into_even_lattice_is_relabeling(self):
        # X = a 21-point line; Y = the even sublattice of a 41-point line,
        # f bijective: every target point keeps its own member, distances
        # double, counts are untouched
        from folnerflow import ball_family
        X = grid_window(1, 0, 20)
        big = grid_window(1, 0, 40)
        Y = subspace(big, [2 * x for x in range(21)])  # d_Y = 2 * d_X
        fam = ball_family(X, 2, R=1, epsilon=Fraction(2, 3))
        f = {x: x for x in range(21)}  # Y's point i sits at coordinate 2i
        out = pushforward_injective(fam, f, Y, target_R=2)
        rep_in = verify_family(fam)
        rep_out = verify_family(out)
        assert rep_out.worst_ratio == rep_in.worst_ratio  # bijective relabeling
        assert rep_out.pair_count == rep_in.pair_count
        assert rep_out.max_support_radius == 2 * rep_in.max_support_radius

    def test_codense_inclusion_duplicates_members(self):
        # X = evens inside a line window; every odd point borrows its even
        # left neighbour's member (tie to the smaller image), so ratios
        # survive and the support radius grows by one
        big = grid_window(1, 0, 40)
        evens = [2 * k for k in range(21)]
        X = subspace(big, evens)
        chains = {i: Chain.from_set(range(max(0, i - 2), min(21, i + 3)))
                  for i in range(21)}
        fam = IndexedFamily(space=X, chains=chains,
                            params=FamilyParams(R=2, epsilon=Fraction(2, 3), S=4))
        f = {i: evens[i] for i in range(21)}
        out = pushforward_injective(fam, f, big, target_R=1)
        for i in list(fam.chains)[1:-1]:
            y = evens[i]
            assert out.chains[y] == Chain({evens[z]: v for z, v in fam.chains[i].items()})
            assert out.chains[y + 1] == out.chains[y]
        rep_out = verify_family(out)
        rep_in = verify_family(fam)
        assert rep_out.worst_ratio == rep_in.worst_ratio
        assert rep_out.max_support_radius == rep_in.max_support_radius + 1


    def test_empty_and_non_injective_maps_rejected(self):
        from folnerflow import EmptyImage
        X = grid_window(1, 0, 10)
        fam = self.make_family(X, core=range(3, 6))
        with pytest.raises(EmptyImage):
            pushforward_injective(fam, {}, X)
        with pytest.raises(ValueError, match="injective"):
            pushforward_injective(fam, {x: 0 for x in range(11)}, X)


class TestCoarseMapModel:
    def test_build_and_invariants(self):
        X = grid_window(1, 0, 12)
        Y = subspace(grid_window(1, 0, 12), [0, 3, 6, 9, 12])  # coarse lattice
        f = {x: min(x // 3, 4) for x in range(13)}  # collapse to nearest-below lattice point
        rho_minus = [(0, 0)]
        rho_plus = [(d, 3 * d + 3) for d in range(13)]
        model = CoarseMapModel.build(X, Y, f, rho_minus, rho_plus)
        # iota is injective and fits in the declared budget
        assert len(set(model.iota.values())) == X.n
        assert all(0 <= k < model.M for _z, k in model.iota.values())
        for x, (z, _k) in model.iota.items():
            assert X.dist(x, model.g[f[x]]) <= model.S
            assert z == model.g[f[x]]
        prod, mapping, z_index = model.product_injection()
        assert len(set(mapping.values())) == X.n
        assert prod.n == len(model.Z) * model.M

    def test_moduli_violation_rejected(self):
        X = grid_window(1, 0, 5)
        Y = grid_window(1, 0, 5)
        f = {x: x for x in range(6)}
        with pytest.raises(ValueError):
            CoarseMapModel.build(X, Y, f, [(0, 0)], [(0, 0)])  # claims bounded image spread


def moduli_by_pairs(X, f, Y, rho_minus, rho_plus):
    """check_moduli as specified: one `dist` of X and one of Y per pair."""
    def at(table, t):
        below = [v for d, v in sorted(table) if d <= t]
        if not below:
            raise ValueError(f"modulus table does not cover distance {t}")
        return below[-1]
    pts = sorted(f)
    bad = []
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            d, dy = X.dist(x, y), Y.dist(f[x], f[y])
            if not at(rho_minus, d) <= dy <= at(rho_plus, d):
                bad.append((x, y, d, dy))
    return bad


def as_matrix(space):
    return type(space)(space.n, frontier=space.frontier,
                       matrix=[[space.dist(x, y) for y in range(space.n)] for x in range(space.n)])


class TestDistanceRows:
    """check_moduli and subspace read one distance row per point; the
    reference is the per-pair `dist` they used to call."""

    @settings(max_examples=80, deadline=None)
    @given(rational_graphs(), rational_graphs(), st.data())
    def test_check_moduli_matches_per_pair_dist(self, first, second, data):
        X, Y = graph_space(*first), graph_space(*second)
        if data.draw(st.booleans()):
            X, Y = as_matrix(X), as_matrix(Y)
        f = {x: data.draw(st.integers(0, Y.n - 1)) for x in range(X.n)}
        if data.draw(st.booleans()):  # a partial map
            f = {x: y for x, y in f.items() if data.draw(st.booleans())}
        # table entries at realised distances, with bounds at, just below and
        # just above realised image distances (1/(7L) lies between two of Y's);
        # a first distance above 0 leaves the short distances uncovered
        Dx = sorted({X.dist(x, y) for x in range(X.n) for y in range(X.n)})
        Dy = sorted({Y.dist(x, y) for x in range(Y.n) for y in range(Y.n)})
        nudge = Fraction(1, 7 * math.lcm(*(d.denominator for d in Dy)))
        bound = st.builds(lambda v, e: max(v + e, 0), st.sampled_from(Dy),
                          st.sampled_from((-nudge, 0, nudge)))
        entry = st.tuples(st.sampled_from(Dx), bound)
        tables = [[(data.draw(st.sampled_from([0, 0, 0] + Dx)), data.draw(bound))]
                  + data.draw(st.lists(entry, max_size=4)) for _ in range(2)]
        try:
            expected = moduli_by_pairs(X, f, Y, *tables)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                check_moduli(X, f, Y, *tables)
        else:
            assert check_moduli(X, f, Y, *tables) == expected

    def test_upper_table_read_only_where_the_lower_bound_holds(self):
        # as in rho_-(d) <= d' <= rho_+(d): the pair fails rho_- and rho_+
        # does not cover its distance, which is not an error
        X, Y = grid_window(1, 0, 1), grid_window(1, 0, 0)
        assert check_moduli(X, {0: 0, 1: 0}, Y, [(0, 1)], [(2, 0)]) == [(0, 1, 1, 0)]

    @settings(max_examples=80, deadline=None)
    @given(rational_graphs(), st.data())
    def test_subspace_matches_per_pair_dist(self, graph, data):
        space = graph_space(*graph)
        for s in (space, as_matrix(space)):
            P = sorted(data.draw(st.sets(st.integers(0, s.n - 1), min_size=1)))
            sub = subspace(s, P)
            assert [[sub.dist(i, j) for j in range(sub.n)] for i in range(sub.n)] == [
                [s.dist(x, y) for y in P] for x in P]
            assert sub.frontier == {i for i, x in enumerate(P) if x in s.frontier}

    def test_check_moduli_needs_known_points(self):
        X, Y = grid_window(1, 0, 4), grid_window(1, 0, 2)
        with pytest.raises(KeyError, match="9"):
            check_moduli(X, {0: 0, 9: 1}, Y, [(0, 0)], [(0, 9)])
        with pytest.raises(KeyError, match="7"):
            check_moduli(X, {0: 0, 4: 7}, Y, [(0, 0)], [(0, 9)])


class TestProjectFamily:
    def test_column_collapse_example(self):
        base = grid_window(1, 0, 9)
        prod = product_with_interval(base, 2)
        w = 4
        chains = {z * 2: Chain.from_set({w * 2, w * 2 + 1}) for z in range(3, 7)}
        fam = IndexedFamily(space=prod, chains=chains,
                            params=FamilyParams(R=1, epsilon=Fraction(1, 2), S=8, M=0))
        out = project_family(prod, fam)
        for z in range(3, 7):
            assert out.chains[z].support() == {w}

    def test_counting_inequalities_randomized(self, rng):
        base = grid_window(1, 0, 19)
        M = 3
        prod = product_with_interval(base, M)
        for _ in range(200):
            A = {rng.randrange(prod.n) for _ in range(rng.randint(1, 25))}
            B = {rng.randrange(prod.n) for _ in range(rng.randint(1, 25))}
            PA = {q // M for q in A}
            PB = {q // M for q in B}
            assert len(PA ^ PB) <= len(A ^ B)
            assert M * len(PA & PB) >= len(A & B)

    def test_epsilon_chaining(self, rng):
        # input ratios < eps/M guarantee output ratios < eps
        base = grid_window(1, 0, 30)
        M = 3
        eps = Fraction(3, 4)
        prod = product_with_interval(base, M)
        pool = [z * M + i for z in range(5, 27) for i in range(M)]
        C = set(rng.sample(pool, 50))
        spare = [p for p in pool if p not in C]
        chains = {}
        for z in range(12, 19):
            out_el = rng.choice(sorted(C))
            in_el = rng.choice(spare)
            chains[z * M] = Chain.from_set((C - {out_el}) | {in_el})
        fam = IndexedFamily(space=prod, chains=chains,
                            params=FamilyParams(R=1, epsilon=eps / M, S=60, M=0))
        assert verify_family(fam).passed  # worst possible is 4/48 < 1/4
        out = project_family(prod, fam)
        assert out.params.epsilon == eps
        report = verify_family(out)
        assert report.passed
        assert report.worst_ratio < eps


def pi(model, j, g):
    """The quotient map pi_j: the global id of the image of the integer g in box j."""
    return model.offsets[j - 1] + g % model.sizes[j - 1]


class TestBoxSpace:
    def test_cycle_lengths(self):
        model = build_box_space(4, 3)
        assert model.sizes == (4, 16, 64)
        assert model.space.n == 84

    def test_quotient_injective_on_ball(self):
        # pi_3 on a radius-19 ball of the integers: 39 points, 39 images
        model = build_box_space(4, 3)
        ball = range(-19, 20)
        images = {pi(model, 3, g) for g in ball}
        assert len(images) == len(list(ball))
        # and it is 64-periodic
        assert pi(model, 3, 7) == pi(model, 3, 7 + 64)

    def test_quotient_isometric_on_small_diameter_sets(self):
        # distances within sets of diameter <= 19 survive the quotient
        model = build_box_space(4, 3)
        space = model.space
        for a in range(-10, 10):
            for b in range(a, a + 20):
                d = space.dist(pi(model, 3, a), pi(model, 3, b))
                assert d == min(abs(a - b), 64 - abs(a - b)) == abs(a - b)

    def test_spacing_exceeds_range(self):
        model = build_box_space(4, 3)
        # cross-box distances are at least the larger box's spacing entry
        assert model.space.dist(0, model.offsets[1]) == model.spacing[1]
        for j, l in itertools.combinations(range(1, 4), 2):
            d = model.space.dist(model.offsets[j - 1], model.offsets[l - 1])
            assert d > 1

    def test_explicit_spacing(self):
        # box j lies spacing[j-1] from each box before it, base to base; the
        # first entry is no distance, but must still start the increase
        spacing = [1, Fraction(5, 2), 7]
        model = build_box_space(3, 3, spacing)
        assert model.spacing == tuple(spacing)
        for i, j in itertools.combinations(range(3), 2):
            assert model.space.dist(model.offsets[i], model.offsets[j]) == spacing[j]
        with pytest.raises(ValueError, match="one spacing entry per box"):
            build_box_space(3, 3, [1, 2])
        with pytest.raises(ValueError, match="strictly increasing"):
            build_box_space(3, 3, [1, 3, 3])


class TestBoxFamily:
    def test_acceptance_numbers(self):
        model = build_box_space(4, 5)
        fam, report = box_family(model, range(10), 1, Fraction(1, 4))
        assert report.S == 9
        assert report.injectivity_threshold == 39
        assert report.J == 2
        assert report.equalities_hold
        assert report.worst_ratio == Fraction(2, 9) < Fraction(1, 4)
        assert verify_family(fam, require_flat=True).passed

    def test_deep_box_equalities_match_integer_oracle(self):
        model = build_box_space(4, 4)
        F = list(range(10))
        fam, report = box_family(model, F, 1, Fraction(1, 4))
        Fset = set(F)
        shifted = {f + 1 for f in F}
        for j in range(report.J + 1, 5):
            off = model.offsets[j - 1]
            size = model.sizes[j - 1]
            for g in range(size):
                A = fam.chains[off + g].support()
                B = fam.chains[off + (g + 1) % size].support()
                assert len(A ^ B) == len(Fset ^ shifted) == 2
                assert len(A & B) == len(Fset & shifted) == 9

    def test_catchall_boxes_trivial(self):
        model = build_box_space(4, 5)
        fam, report = box_family(model, range(10), 1, Fraction(1, 4))
        catchall = fam.chains[0]
        for j in range(1, report.J + 1):
            for p in model.box_points(j):
                assert fam.chains[p] == catchall
                assert ratio(fam.chains[p], catchall) == 0
        assert catchall.support() == frozenset(range(20))  # boxes 1 and 2

    @pytest.mark.parametrize("R", [0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3])
    def test_worst_ratio_matches_ratio_loop(self, R):
        # every deep point g against g + delta for delta in 1..floor(R), by
        # definition; below R = 1 there is no pair and the worst ratio is 0
        model = build_box_space(4, 5)
        fam, report = box_family(model, range(10), R, 1)
        ratios = [ratio(fam.chains[off + g], fam.chains[off + (g + delta) % size])
                  for j, off, size in zip(range(1, 6), model.offsets, model.sizes) if j > report.J
                  for g in range(size) for delta in range(1, int(R) + 1)]
        assert report.pairs_checked == len(ratios)
        assert bool(ratios) == (R >= 1)
        assert report.worst_ratio == max(ratios, default=0)
        assert type(report.worst_ratio) is Fraction
        if not ratios:
            assert report.to_json()["worst_ratio"] == "0/1"

    def test_not_folner_rejected(self):
        model = build_box_space(4, 4)
        with pytest.raises(ValueError):
            box_family(model, range(3), 1, Fraction(1, 4))  # 2/2 not < 1/4

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            box_family(build_box_space(4, 2), range(10), 1, Fraction(1, 4))
