"""Window generators, exact metrics, balls, growth profiles, JSON round-trips."""

import copy
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_metric_axioms,
    bfs_all_pairs,
    count_searches,
    descriptors,
    dist_matrix,
    floyd_warshall,
    graph_space,
    growth_by_radius,
    rational_graphs,
    rebuild_space,
    space_adjacency_sets,
    unit_graphs,
)
from folnerflow import (
    WindowSpace,
    ball_family,
    cycle_window,
    disjoint_union,
    generate,
    grid_window,
    growth_profile,
    product_with_interval,
    regular_tree_window,
    tree_window,
)
from folnerflow.constructions import build_box_space, subspace
from folnerflow.errors import ConfigError
from folnerflow.jsonio import List, dump_json, read
from folnerflow.space import (_KINDS, GENERATOR, _count, check_radius, space_from_json,
                              space_to_json)


def _spec_points(spec, cap):
    """The point count of `generate(spec)` that a file's points are held to:
    exact up to `cap`, and past it as soon as the build would be."""
    return _count(read(spec, GENERATOR, "generator spec"), cap)


def ids_of_coords(space, *coords):
    index = space.meta["coord_index"]
    return [index[c if isinstance(c, tuple) else (c,)] for c in coords]


def assert_files_refused(spec, message, points_tried):
    """A space file that carries the generator descriptor `spec`, with edges
    enough for its points, is refused at each of `points_tried`: naming
    `points` where the descriptor counts others, else with `message`, the
    build's own refusal."""
    for points in points_tried:
        doc = {"points": points, "frontier": [], "label": "", "generator": spec,
               "metric": {"type": "graph", "edges": [[0, 1, "1/1"]] * points}}
        with pytest.raises(ConfigError) as info:
            space_from_json(doc)
        assert str(info.value) == (message if _spec_points(spec, points) == points else
                                   "space file points does not match its generator descriptor")


class TestGenerators:
    def test_cycle_antipodal(self):
        c = cycle_window(4)
        assert c.dist(0, 2) == 2
        assert c.frontier == frozenset()

    def test_grid_1d_range(self):
        g = grid_window(1, -5, 5)
        lo, hi = ids_of_coords(g, -5, 5)
        assert g.dist(lo, hi) == 10
        assert g.frontier == {lo, hi}

    def test_union_cross_distance_convention(self):
        u = disjoint_union([cycle_window(3), cycle_window(9)], [6, 6])
        # basepoint-to-basepoint is exactly the spacing
        assert u.dist(0, 3) == 6
        # plus internal offsets to each basepoint
        assert u.dist(1, 3 + 4) == 6 + 1 + 4
        assert u.dist(2, 3 + 8) == 6 + 1 + 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            grid_window(0, 0, 5)
        with pytest.raises(ValueError):
            cycle_window(0)
        with pytest.raises(ValueError):
            tree_window(2, -1)
        with pytest.raises(ValueError):
            disjoint_union([cycle_window(3)], [0])

    @pytest.mark.parametrize("build, message", [
        (lambda: grid_window(1, 5, 4), "empty coordinate range [5..4]"),
        (lambda: disjoint_union([], []), "disjoint union of zero parts"),
        (lambda: disjoint_union([cycle_window(3)], [1, 2]), "need one spacing entry per part"),
        (lambda: disjoint_union([cycle_window(3)] * 2, [2, 1]), "spacing must be nondecreasing"),
        (lambda: product_with_interval(cycle_window(3), 0), "need at least one level, got 0"),
    ], ids=["grid-range", "union-no-parts", "union-spacing-count", "union-spacing-order",
            "product-levels"])
    def test_invalid_parameters_named(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("spec, message", [
        ([], "must be an object, got []"), ("cycle", "must be an object, got 'cycle'"),
        ({"length": 5}, "is missing 'kind'")], ids=["list", "str", "no-kind"])
    def test_generate_needs_a_kind(self, spec, message):
        with pytest.raises(ConfigError) as info:
            generate(spec)
        assert str(info.value) == f"generator spec {message}"

    def test_generate_dispatch_and_errors(self):
        s = generate({"kind": "cycle", "length": 5})
        assert s.n == 5
        with pytest.raises(ConfigError):
            generate({"kind": "nope"})
        with pytest.raises(ConfigError):
            generate({"kind": "cycle"})
        with pytest.raises(ConfigError):
            generate({"kind": "cycle", "length": -1})


class TestBalls:
    def test_integer_line_ball(self):
        g = grid_window(1, -5, 5)
        (zero,) = ids_of_coords(g, 0)
        assert g.ball(zero, 1) == frozenset(ids_of_coords(g, -1, 0, 1))
        assert g.ball(zero, Fraction(5, 2)) == frozenset(ids_of_coords(g, -2, -1, 0, 1, 2))

    def test_regular_tree_root_ball(self):
        t = regular_tree_window(3, 3)
        assert len(t.ball(0, 1)) == 4

    def test_zero_radius_is_identity(self):
        for s in (cycle_window(7), grid_window(2, -2, 2), tree_window(2, 3)):
            for x in (0, s.n // 2, s.n - 1):
                assert s.ball(x, 0) == frozenset({x})

    def test_unknown_point(self):
        with pytest.raises(KeyError):
            cycle_window(5).ball(9, 1)
        with pytest.raises(KeyError):
            cycle_window(5).dist(0, -1)

    def test_bool_is_not_a_point(self):
        for space in (grid_window(1, 0, 9), WindowSpace(2, matrix=[[0, 1], [1, 0]])):
            with pytest.raises(KeyError):
                space.ball(True, 1)
            with pytest.raises(KeyError):
                space.dist(True, 0)
            with pytest.raises(KeyError):
                space.nearest([True])


class TestGrowthProfile:
    def test_integer_line(self):
        g = grid_window(1, -200, 200)
        assert growth_profile(g, [3])[3] == 7

    def test_cycle(self):
        assert growth_profile(cycle_window(9), [1])[1] == 3

    def test_regular_tree_by_enumeration(self):
        # oracle: count vertices within two unit steps of the root by BFS
        t = regular_tree_window(3, 4)
        adj, n = space_adjacency_sets(t)
        D = bfs_all_pairs(adj, n)
        expected = int((D[0] <= 2).sum())
        assert expected == 10  # 1 + 3 + 6
        assert growth_profile(t, [2])[2] == 10

    def test_radius_zero_is_one(self):
        for s in (grid_window(1, -5, 5), cycle_window(6)):
            assert growth_profile(s, [0])[0] == 1

    def test_window_too_thin_reports_none(self):
        g = grid_window(1, 0, 3)  # every point within 2 of the frontier
        assert growth_profile(g, [2])[2] is None

    def test_one_search_per_interior_point_of_the_smallest_radius(self, monkeypatch):
        g = grid_window(2, 0, 18)  # side 19: 225 points lie further than 1 from the frontier
        expected = growth_by_radius(g, [1, 2, 3, 4])
        calls = count_searches(g, monkeypatch)
        assert growth_profile(g, [4, 3, 2, 1]).values == expected
        assert len(calls) == len(g.interior_points(1)) == 225


@st.composite
def growth_cases(draw, graphs):
    """A graph, or its matrix twin, with or without its frontier, and a list
    of radii drawn unsorted and repeated from its distances, each distance
    plus half a step at scale L (so 1 and 3/2 share a floor), 0, and one
    past every distance (no interior point there once there is a frontier)."""
    n, edges, frontier = draw(graphs)
    if draw(st.booleans()):
        frontier = set()
    D = floyd_warshall(n, edges)
    space = draw(st.sampled_from([graph_space(n, edges, frontier),
                                  WindowSpace(n, frontier=frontier, matrix=D)]))
    half = Fraction(1, 2 * space._scale)
    distances = {d for row in D for d in row}
    pool = sorted(distances | {d + half for d in distances} | {max(distances) + 1})
    return space, draw(st.lists(st.sampled_from(pool), max_size=6))


class TestGrowthOracle:
    """`growth_profile` against its per-radius definition, with one search per
    point of the smallest radius's interior."""

    @staticmethod
    def check(case, monkeypatch):
        space, radii = case
        expected = growth_by_radius(space, radii)  # and the frontier distances, cached
        calls = count_searches(space, monkeypatch)
        profile = growth_profile(space, radii)
        assert list(profile.values.items()) == list(expected.items())
        assert len(calls) == (len(space.interior_points(min(radii))) if radii else 0)
        for R in radii:
            assert profile[R] == expected[R]

    @settings(max_examples=150, deadline=None)
    @given(growth_cases(unit_graphs()))
    def test_unit_graphs_and_matrix_twins(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(case, monkeypatch)

    @settings(max_examples=150, deadline=None)
    @given(growth_cases(rational_graphs()))
    def test_rational_graphs_and_matrix_twins(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(case, monkeypatch)


class TestMetricAxioms:
    @pytest.mark.parametrize("space", [
        grid_window(1, -40, 40),
        grid_window(2, -4, 4),
        cycle_window(100),
        tree_window(2, 6),
        regular_tree_window(3, 4),
        disjoint_union([cycle_window(3), cycle_window(9), cycle_window(27)], [2, 5, 11]),
        product_with_interval(grid_window(1, -10, 10), 4),
    ], ids=lambda s: s.label)
    def test_axioms_exhaustive(self, space):
        assert space.n <= 300
        assert_metric_axioms(dist_matrix(space))

    @pytest.mark.parametrize("space", [
        grid_window(1, -40, 40),
        grid_window(2, -4, 4),
        cycle_window(100),
        tree_window(2, 6),
        product_with_interval(grid_window(1, -6, 6), 3),
    ], ids=lambda s: s.label)
    def test_closed_form_matches_graph_bfs(self, space):
        # `dist` (a targeted search of the generated adjacency) must agree
        # with an independent BFS of that adjacency and so with the closed
        # forms L1, cyclic, tree and sum distances (unit-weight spaces only)
        adj, n = space_adjacency_sets(space)
        D = bfs_all_pairs(adj, n)
        assert (D == dist_matrix(space)).all()

    def test_union_matches_weighted_shortest_path(self):
        # shortest paths over the stored edge list alone: reload the union
        # without its generator and compare both with Floyd-Warshall on that
        # edge list; the rational spacing gives the reloaded graph a scale of 2
        for spacing in ([4, 7], [Fraction(3, 2), Fraction(5, 2)]):
            u = disjoint_union([cycle_window(5), cycle_window(9)], spacing)
            doc = space_to_json(u)
            del doc["generator"]
            raw = space_from_json(doc)
            D = floyd_warshall(u.n, [(x, y, Fraction(w)) for x, y, w in doc["metric"]["edges"]])
            for x in range(u.n):
                for y in range(u.n):
                    assert u.dist(x, y) == raw.dist(x, y) == D[x][y]


def closed_ball(D, x, R):
    return frozenset(y for y, d in enumerate(D[x]) if d <= R)


def closed_neighborhood(D, U, R):
    return frozenset(y for y in range(len(D)) if any(D[u][y] <= R for u in U))


def interior_oracle(D, frontier, R):
    return [x for x in range(len(D)) if all(D[x][f] > R for f in frontier)]


def nearest_oracle(D, sources):
    return [min(sources, key=lambda w: (D[y][w], w)) for y in range(len(D))]


def assert_balls_match(space, D, centres, R):
    got = list(space.balls(centres, R))
    assert got == [closed_ball(D, x, R) for x in centres]
    for x, b in zip(centres, got):
        assert next(space.balls([x], R)) == space.ball(x, R) == b


class TestMetricCoreOracle:
    """The integer-scaled searches against a pure-Fraction Floyd-Warshall."""

    @settings(max_examples=150, deadline=None)
    @given(rational_graphs(), st.data())
    def test_rational_graphs(self, graph, data):
        n, edges, frontier = graph
        space = graph_space(n, edges, frontier)
        D = floyd_warshall(n, edges)
        # distances are multiples of 1/L; a nudge of 1/(6L) lands between two
        L = math.lcm(*(w.denominator for _, _, w in edges))
        nudge = Fraction(1, 6 * L)
        radii = sorted({r for row in D for d in row for r in (d - nudge, d, d + nudge) if r >= 0})
        for x in range(n):
            assert [space.dist(x, y) for y in range(n)] == D[x]
            for d in set(D[x]):
                for r in (d - nudge, d, d + nudge):
                    if r >= 0:
                        assert space.ball(x, r) == closed_ball(D, x, r)
        assert space.frontier_distances() == [
            min((D[x][f] for f in frontier), default=None) for x in range(n)
        ]
        U = data.draw(st.sets(st.integers(0, n - 1)))
        R = data.draw(st.sampled_from(radii))
        assert space.neighborhood(U, R) == closed_neighborhood(D, U, R)
        # the same metric as a matrix space, which has its own scale L
        matrix = WindowSpace(n, frontier=frontier, matrix=D)
        assert matrix.neighborhood(U, R) == closed_neighborhood(D, U, R)
        P = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        sources = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        for s in (space, matrix):
            for x in range(n):
                assert s.support_radius(x, P) == max(D[x][z] for z in P)
            assert s.interior_points(R) == interior_oracle(D, frontier, R)
            assert s.nearest(sources) == nearest_oracle(D, sources)
        for r in radii:
            assert matrix.ball(0, r) == closed_ball(D, 0, r)
        # one batch of balls at drawn centres (repeats allowed) and radius
        centres = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        r = data.draw(st.sampled_from(radii))
        assert_balls_match(space, D, centres, r)
        assert_balls_match(matrix, D, centres, r)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 12), (1, 31), (2, 5), (3, 3)]), st.data())
    def test_unit_grids_at_half_integer_radii(self, shape, data):
        dim, side = shape
        g = grid_window(dim, 0, side - 1)
        index = g.meta["coord_index"]
        edges = [
            (i, index[c[:k] + (c[k] + 1,) + c[k + 1:]], 1)
            for c, i in index.items() for k in range(dim) if c[k] + 1 < side
        ]
        D = floyd_warshall(g.n, edges)
        x = data.draw(st.integers(0, g.n - 1))
        U = data.draw(st.sets(st.integers(0, g.n - 1), max_size=4))
        R = Fraction(data.draw(st.integers(0, 2 * dim * side)), 2)
        assert g.ball(x, R) == closed_ball(D, x, R)
        assert g.neighborhood(U, R) == closed_neighborhood(D, U, R)
        assert g.frontier_distances() == [
            min(D[y][f] for f in g.frontier) for y in range(g.n)
        ]
        assert g.interior_points(R) == interior_oracle(D, g.frontier, R)
        # up to the whole window: the search returns at the last target found,
        # which may be anywhere in its BFS layer
        P = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
        assert g.support_radius(x, P) == max(D[x][z] for z in P)
        # unit grids have many equidistant sources: ties go to the smallest id
        sources = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
        assert g.nearest(sources) == nearest_oracle(D, sources)
        # many equidistant points per BFS layer, and batches of them
        centres = data.draw(st.lists(st.integers(0, g.n - 1), max_size=6))
        assert_balls_match(g, D, centres, R)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 40), st.integers(0, 2**32))
    def test_unit_graph_balls_in_distance_id_order(self, n, seed):
        # a BFS discovers each layer in adjacency order, here shuffled and
        # relabelled at random: the balls are the oracle's whatever that order
        rnd = random.Random(seed)  # uniform, where hypothesis would draw simple graphs
        label = list(range(n))
        rnd.shuffle(label)
        edges = [(rnd.randrange(v), v) for v in range(1, n)]
        edges += [(rnd.randrange(n), rnd.randrange(n)) for _ in range(n)]
        edges = [(label[x], label[y], 1) for x, y in edges if x != y]
        rnd.shuffle(edges)
        space = graph_space(n, edges)
        D = floyd_warshall(n, edges)
        for R in range(4):
            assert_balls_match(space, D, range(n), R)
        # owners are read in the search's order too: ties go to the smallest source
        for k in (1, 2, n // 2, n):
            sources = rnd.sample(range(n), k)
            assert space.nearest(sources) == nearest_oracle(D, sources)

    def test_nearest_is_one_search(self, monkeypatch):
        weighted = graph_space(3, [(0, 1, Fraction(1, 2)), (1, 2, 3)])
        for s in (grid_window(2, 0, 6), cycle_window(9), weighted):
            calls = count_searches(s, monkeypatch)
            for k, sources in enumerate(([0], [2, 1], range(s.n)), 1):
                s.nearest(sources)
                assert len(calls) == k

    def test_nearest_needs_known_sources(self):
        g = grid_window(2, 0, 4)
        for s in (g, WindowSpace(2, matrix=[[0, 1], [1, 0]])):
            with pytest.raises(KeyError, match="25"):
                s.nearest([1, 25])
            with pytest.raises(ValueError):
                s.nearest([])

    def test_balls_need_known_centres(self):
        g = grid_window(2, 0, 4)
        for s in (g, WindowSpace(2, matrix=[[0, 1], [1, 0]])):
            balls = s.balls([1, 25], 1)
            assert next(balls) == s.ball(1, 1)
            with pytest.raises(KeyError, match="25"):
                next(balls)

    def test_support_radius_needs_known_points(self):
        g = grid_window(2, 0, 4)
        for s in (g, WindowSpace(2, matrix=[[0, 1], [1, 0]])):
            with pytest.raises(KeyError, match="25"):
                s.support_radius(0, [1, 25])
            with pytest.raises(ValueError):
                s.support_radius(0, [])


class TestTargetedSearch:
    """`dist` and `support_radius` stop their search once every target is
    reached, on unit and weighted graphs and on a matrix's complete graph.
    Unknown and missing targets are in `test_support_radius_needs_known_points`."""

    EDGES = [(0, 1, Fraction(1, 2)), (1, 2, 3), (2, 3, Fraction(2, 3)), (3, 4, 1), (0, 4, 5)]

    @pytest.fixture(params=["unit", "weighted", "matrix"])
    def case(self, request):
        edges = [(x, y, 1) for x, y, _ in self.EDGES] if request.param == "unit" else self.EDGES
        D = floyd_warshall(5, edges)
        space = WindowSpace(5, matrix=D) if request.param == "matrix" else graph_space(5, edges)
        return space, D

    def test_against_floyd_warshall(self, case):
        space, D = case
        for x in range(5):
            for y in range(5):
                assert space.dist(x, y) == D[x][y]
                assert space.support_radius(x, {x, y}) == D[x][y]  # targets that hold x
                assert space.support_radius(x, [y, x, y, y]) == D[x][y]  # repeats
            assert space.support_radius(x, {x}) == space.dist(x, x) == 0
            assert space.support_radius(x, range(5)) == max(D[x])

    def test_reach_against_floyd_warshall(self, case):
        # targets that hold x, repeats, a generator and a single target, at
        # R below, at and above the radius; near is x's closed R-ball
        space, D = case
        for x in range(5):
            for y in range(5):
                for targets in (lambda: {x, y}, lambda: [y, x, y, y],
                                lambda: (z for z in (y, x, y)), lambda: (y,)):
                    for R in (D[x][y] / 2, D[x][y], D[x][y] + 1):
                        near, radius = space.reach(x, targets(), R)
                        assert radius == D[x][y]
                        assert sorted(near) == sorted(closed_ball(D, x, R))

    def test_generator_targets_are_read_once(self, case):
        # a generator used to be read twice: once into the search's target
        # set, then found empty by the max over it
        space, D = case
        for x in range(5):
            assert space.support_radius(x, (z for z in (1, 3))) == max(D[x][1], D[x][3])
            assert space.reach(x, iter([4, 4]), 0) == ([x], D[x][4])

    def test_unknown_target_is_a_key_error_naming_it(self, case):
        space, _ = case
        for x in range(5):
            for targets in ([1, 25], (z for z in (25, 1)), {25}):
                with pytest.raises(KeyError, match="25"):
                    space.support_radius(x, targets)
            with pytest.raises(KeyError, match="25"):
                space.reach(x, [x, 25], 1)
            with pytest.raises(KeyError, match="25"):
                space.dist(x, 25)

    def test_no_targets_is_a_value_error(self, case):
        space, _ = case
        for targets in ([], iter(()), set()):
            with pytest.raises(ValueError, match="point set must be nonempty"):
                space.support_radius(0, targets)
        with pytest.raises(ValueError, match="point set must be nonempty"):
            space.reach(0, (), 1)


    def test_unknown_and_empty_targets_on_a_warm_window(self, case):
        # x's whole window is remembered: the errors stay those of a search,
        # and a non-int id equal to one is taken as that id, as a cold
        # search takes it
        space, D = case
        cold = space_from_json(space_to_json(space))
        for x in range(5):
            space.ball(x, max(D[x]))
            for targets in ([1, 25], (z for z in (25, 1)), {25}):
                with pytest.raises(KeyError, match="25"):
                    space.support_radius(x, targets)
            with pytest.raises(KeyError, match="25"):
                space.reach(x, [x, 25], 1)
            for targets in ([], iter(()), set()):
                with pytest.raises(ValueError, match="point set must be nonempty"):
                    space.reach(x, targets, 1)
            for targets in ({True}, [1.0, x]):
                assert space.support_radius(x, targets) == cold.support_radius(x, targets)
            # the latest whole-window balls of 5 distances that fit the cap:
            # 10 adjacency entries on the graphs, 20 on the matrix
            assert list(space._balls) == list(range(x + 1))[-(space._cap // 5):]


class TestReachOracle:
    """`reach` against Floyd-Warshall on random graphs and their matrix
    twins: near is the closed R-ball, each point once, and the radius is
    the support radius, for R below, at and above it."""

    @staticmethod
    def check(n, edges, data):
        D = floyd_warshall(n, edges)
        L = math.lcm(*(Fraction(w).denominator for _, _, w in edges))
        nudge = Fraction(1, 6 * L)
        for space in (graph_space(n, edges), WindowSpace(n, matrix=D)):
            for x in range(n):
                P = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
                far = max(D[x][z] for z in P)
                R = data.draw(st.sampled_from(
                    [r for r in (far - nudge, far, far + nudge, far / 2) if r >= 0]))
                near, radius = space.reach(x, P, R)
                assert radius == far
                assert len(near) == len(set(near))
                assert set(near) == closed_ball(D, x, R) == space.ball(x, R)

    @settings(max_examples=60, deadline=None)
    @given(unit_graphs(), st.data())
    def test_unit_graphs(self, graph, data):
        n, edges, _ = graph
        self.check(n, edges, data)

    @settings(max_examples=60, deadline=None)
    @given(rational_graphs(), st.data())
    def test_rational_graphs(self, graph, data):
        n, edges, _ = graph
        self.check(n, edges, data)


class TestMatrixSearchOracle:
    """`_search` on the matrix twin of a random graph against the graph's
    own search: the same distances for any sources and limit, in (d_int, id)
    order; with targets it ends at the farthest target's distance and holds
    every nearer point. The twin's scale L may differ from the graph's, so
    distances are compared as Fractions."""

    @staticmethod
    def exact(space, found):
        return {y: Fraction(d, space._scale) for y, d in found.items()}

    def check(self, n, edges, data):
        D = floyd_warshall(n, edges)
        graph, twin = graph_space(n, edges), WindowSpace(n, matrix=D)
        L = math.lcm(*(Fraction(w).denominator for _, _, w in edges))
        nudge = Fraction(1, 6 * L)
        for _ in range(3):
            sources = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
            near = [min(D[s][y] for s in sources) for y in range(n)]
            for R in (None, *(r for d in set(near) for r in (d - nudge, d, d + nudge) if r >= 0)):
                found = twin._search(sources, None if R is None else twin._limit(R))
                assert list(found) == sorted(found, key=lambda y: (found[y], y))
                assert self.exact(twin, found) == self.exact(
                    graph, graph._search(sources, None if R is None else graph._limit(R)))
            targets = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
            far = max(near[z] for z in targets)
            for space in (twin, graph):
                found = self.exact(space, space._search(sources, targets=targets))
                assert list(found.values()) == sorted(found.values())
                assert found[next(reversed(found))] == far
                assert {y: d for y, d in found.items() if d < far} == {
                    y: d for y, d in enumerate(near) if d < far}
                if far:  # a limit short of the farthest target never reaches it
                    with pytest.raises(KeyError):
                        space._search(sources, space._limit(far) - 1, targets)
        for space in (twin, graph):
            assert space._search(()) == {}
            for bad in (n, -1):
                with pytest.raises(KeyError, match=str(bad)):
                    space._search((0,), targets={0, bad})

    @settings(max_examples=60, deadline=None)
    @given(unit_graphs(), st.data())
    def test_unit_graphs(self, graph, data):
        n, edges, _ = graph
        self.check(n, edges, data)

    @settings(max_examples=60, deadline=None)
    @given(rational_graphs(), st.data())
    def test_rational_graphs(self, graph, data):
        n, edges, _ = graph
        self.check(n, edges, data)


class TestUnitWeights:
    """`unit_weights` and `graph_neighbors` are read from the metric, and
    cannot be set."""

    def test_values(self):
        unit = graph_space(3, [(0, 1, 1), (1, 2, 1)])
        weighted = graph_space(3, [(0, 1, 1), (1, 2, Fraction(1, 2))])
        # a matrix is its complete graph: a unit graph when every entry is 1
        ones = WindowSpace(2, matrix=[[0, 1], [1, 0]])
        halves = WindowSpace(3, matrix=[[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, 1],
                                        [1, 1, 0]])
        assert (unit.unit_weights, weighted.unit_weights, ones.unit_weights,
                halves.unit_weights) == (True, False, True, False)
        assert unit.graph_neighbors == weighted.graph_neighbors == ((1,), (0, 2), (1,))
        assert ones.graph_neighbors == ((1,), (0,))
        assert halves.graph_neighbors == ((1, 2), (0, 2), (0, 1))

    def test_read_only(self):
        space = graph_space(2, [(0, 1, Fraction(1, 2))])
        with pytest.raises(AttributeError):
            space.unit_weights = True
        with pytest.raises(AttributeError):
            space.graph_neighbors = ((1,), (0,))
        assert not space.unit_weights


class TestRadiusValidation:
    """A radius is an int or Fraction >= 0: floats and bools are rejected,
    not rounded (a float 1.5 would otherwise pass as 3/2 and 0.1 as a
    55-bit fraction)."""

    bad = pytest.mark.parametrize("R", [1.5, 0.1, 1.0, True, -1, Fraction(-1, 2), "1"])

    @bad
    def test_ball(self, R):
        for space in (grid_window(1, 0, 9), WindowSpace(2, matrix=[[0, 1], [1, 0]])):
            with pytest.raises(ValueError, match="radius"):
                space.ball(1, R)

    @bad
    def test_balls_check_the_radius_without_centres(self, R):
        for space in (grid_window(1, 0, 9), WindowSpace(2, matrix=[[0, 1], [1, 0]])):
            with pytest.raises(ValueError, match="radius"):
                space.balls([], R)

    @bad
    def test_neighborhood(self, R):
        with pytest.raises(ValueError, match="radius"):
            grid_window(1, 0, 9).neighborhood([3], R)

    @bad
    def test_interior_points(self, R):
        with pytest.raises(ValueError, match="radius"):
            grid_window(1, 0, 9).interior_points(R)

    @bad
    def test_growth_profile(self, R):
        with pytest.raises(ValueError, match="radius"):
            growth_profile(grid_window(1, 0, 9), [1, R])

    @bad
    def test_growth_profile_lookup(self, R):
        profile = growth_profile(grid_window(1, -5, 5), [1])
        with pytest.raises(ValueError, match="radius") as e:
            profile[R]
        assert repr(R) in str(e.value)

    def test_exact_radii_accepted(self):
        g = grid_window(1, 0, 9)
        assert g.ball(3, Fraction(3, 2)) == g.ball(3, 1) == frozenset({2, 3, 4})
        assert check_radius(0) == 0 and check_radius(Fraction(5, 2)) == Fraction(5, 2)


class TestAdjacencyValidation:
    @pytest.mark.parametrize("w", [Fraction(0), -1, 0.5, True, "1"])
    def test_weight_must_be_positive_int_or_fraction(self, w):
        with pytest.raises(ValueError, match="edge weight"):
            WindowSpace(2, adjacency=[[(1, w)], [(0, w)]])

    @pytest.mark.parametrize("f", [2, -1, True, 1.0, "1"])
    def test_frontier_ids_must_be_points(self, f):
        with pytest.raises(ValueError, match="frontier ids"):
            WindowSpace(2, frontier=[f], adjacency=[[(1, 1)], [(0, 1)]])

    @pytest.mark.parametrize("y", [2, -1, True])
    def test_endpoint_must_be_a_point(self, y):
        with pytest.raises(ValueError, match="edge endpoint"):
            WindowSpace(2, adjacency=[[(y, 1)], [(0, 1)]])

    @pytest.mark.parametrize("w", ["-1", "0"])
    def test_file_with_nonpositive_weight(self, w):
        doc = {"points": 2, "metric": {"type": "graph", "edges": [[0, 1, w]]},
               "frontier": [], "label": ""}
        with pytest.raises(ConfigError) as info:
            space_from_json(doc)
        assert str(info.value) == f"space file metric.edges[0][2] must be a rational > 0, got {w!r}"

    @pytest.mark.parametrize("edge", [[0, 2, "1/1"], [-1, 1, "1/1"]])
    def test_file_with_endpoint_out_of_range(self, edge):
        doc = {"points": 2, "metric": {"type": "graph", "edges": [edge]},
               "frontier": [], "label": ""}
        with pytest.raises(ConfigError, match=r"space file metric\.edges\[0\]\[[01]\] must be a "
                           r"point id below 2, got"):
            space_from_json(doc)


class TestMatrixValidation:
    @pytest.mark.parametrize("v", [0.5, True, "1/2"])
    def test_entries_must_be_int_or_fraction(self, v):
        # a float would be taken at its binary value, a str or bool coerced
        with pytest.raises(ValueError, match="matrix entry") as e:
            WindowSpace(2, matrix=[[0, v], [v, 0]])
        assert repr(v) in str(e.value)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=0, matrix=[]), "a window needs at least one point, got n=0"),
        (dict(n=2), "supply exactly one of matrix= or adjacency="),
        (dict(n=2, matrix=[[0, 1]]), "matrix must be n x n"),
        (dict(n=2, matrix=[[0, 1], [1]]), "matrix must be n x n"),
        (dict(n=2, matrix=[[1, 1], [1, 0]]), "dist(0,0) != 0"),
        (dict(n=2, matrix=[[0, 0], [0, 0]]), "dist(0,1) must be positive"),
        (dict(n=3, adjacency=[[(1, 1)], [(0, 1)]]), "adjacency length != n"),
        (dict(n=3, adjacency=[[(1, 1)], [(0, 1)], []]),
         "graph metric requires a connected graph; only 2 of 3 points reachable from 0"),
    ], ids=["no-points", "no-metric", "rows", "row-length", "diagonal", "zero-distance",
            "adjacency-length", "disconnected"])
    def test_constructor_names_the_fault(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            WindowSpace(**kwargs)
        assert str(info.value) == message

    def test_exact_entries_keep_their_values(self):
        space = WindowSpace(2, matrix=[[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), 0]])
        assert space.dist(0, 1) == Fraction(1, 2)
        assert WindowSpace(2, matrix=[[0, 3], [3, 0]]).dist(1, 0) == 3

    @pytest.mark.parametrize("m, triple", [
        ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], (0, 1, 2)),
        ([[0, Fraction(1, 2), 2], [Fraction(1, 2), 0, 1], [2, 1, 0]], (0, 1, 2)),
        ([[0, 1, 1, 1], [1, 0, 1, 3], [1, 1, 0, 1], [1, 3, 1, 0]], (1, 0, 3)),
    ], ids=["ints", "fractions", "first-k"])
    def test_triangle_inequality_names_the_first_triple(self, m, triple):
        # d(i, j) > d(i, k) + d(k, j) at the first i, then k, then j
        i, k, j = triple
        with pytest.raises(ValueError) as e:
            WindowSpace(len(m), matrix=m)
        assert str(e.value) == (f"matrix breaks the triangle inequality at ({i},{k},{j}): "
                                f"dist({i},{j}) > dist({i},{k}) + dist({k},{j})")


class TestMalformedSpaceFiles:
    """A space file or generator descriptor of the wrong shape is a
    ConfigError naming the field, not a TypeError or a coerced value."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(frontier=[1.5]),
         "space file frontier[0] must be a point id below 3, got 1.5"),
        (lambda d: d.update(frontier=["a"]),
         "space file frontier[0] must be a point id below 3, got 'a'"),
        (lambda d: d.update(frontier=[True]),
         "space file frontier[0] must be a point id below 3, got True"),
        (lambda d: d.update(frontier=5), "space file frontier must be a list, got 5"),
        (lambda d: d.update(points="3"), "space file points must be a positive int, got '3'"),
        (lambda d: d.update(points=True), "space file points must be a positive int, got True"),
        (lambda d: d.update(metric="graph"), "space file metric must be an object, got 'graph'"),
        (lambda d: d["metric"]["edges"].append([0, 1]),
         "space file metric.edges[2] must be a list of 3 entries, got [0, 1]"),
        (lambda d: d["metric"].update(edges=5), "space file metric.edges must be a list, got 5"),
        (lambda d: d.update(metric={"type": "matrix", "entries": [5]}),
         "space file metric.entries[0] must be a list, got 5"),
        (lambda d: d.update(metric={"type": "grid"}),
         "space file metric.type must be one of 'matrix', 'graph', got 'grid'"),
    ], ids=["frontier-float", "frontier-str", "frontier-bool", "frontier-not-list",
            "points-str", "points-bool", "metric-str", "edge-pair", "edges-not-list",
            "matrix-row-not-list", "metric-type"])
    def test_raw_file(self, mutate, message):
        doc = space_to_json(grid_window(1, 0, 2))
        del doc["generator"]
        mutate(doc)
        with pytest.raises(ConfigError) as info:
            space_from_json(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("generated", [True, False])
    def test_label_must_be_a_str(self, generated):
        # a generated space ignores the stored label, so it is checked first
        doc = space_to_json(grid_window(1, 0, 2))
        if not generated:
            del doc["generator"]
        doc["label"] = 5
        with pytest.raises(ConfigError) as info:
            space_from_json(doc)
        assert str(info.value) == "space file label must be a str, got 5"

    def test_generated_file_frontier(self):
        # {0, 2.0} == {0, 2}, so only the entry check tells them apart
        doc = space_to_json(grid_window(1, 0, 2))
        doc["frontier"] = [0, 2.0]
        with pytest.raises(ConfigError) as info:
            space_from_json(doc)
        assert str(info.value) == "space file frontier[1] must be a point id below 3, got 2.0"

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "grid", "low": 0, "high": "5"}, "high must be an int, got '5'"),
        ({"kind": "grid", "dim": 1.0, "low": 0, "high": 3}, "dim must be an int, got 1.0"),
        ({"kind": "cycle", "length": True}, "length must be an int, got True"),
        ({"kind": "tree", "branching": 2.5, "depth": 2}, "branching must be an int, got 2.5"),
        ({"kind": "regular_tree", "degree": 3, "depth": None}, "depth must be an int, got None"),
        ({"kind": "product", "base": {"kind": "cycle", "length": 3}, "levels": "2"},
         "levels must be an int, got '2'"),
        ({"kind": "union", "parts": 5, "spacing": [1]}, "parts must be a list, got 5"),
        ({"kind": "union", "parts": [{"kind": "cycle", "length": 3}], "spacing": ["x"]},
         "spacing[0] must be an exact rational, got 'x'"),
        ({"kind": "product", "base": {"kind": "cycle", "length": True}, "levels": 2},
         "base.length must be an int, got True"),
        # a key the kind does not read would be dropped by space_to_json
        ({"kind": "cycle", "length": 5, "foo": 1}, "does not read 'foo'"),
        ({"kind": "grid", "low": 0, "high": 3, "length": 4, "b": 0},
         "does not read 'b', 'length'"),
        ({"kind": "union", "parts": [{"kind": "cycle", "length": 3},
                                     {"kind": "tree", "branching": 2, "depth": 1, "degree": 3}],
          "spacing": [1, 2]}, "parts[1] does not read 'degree'"),
        ({"kind": "product", "base": {"kind": "regular_tree", "degree": 3, "depth": 1, "x": 0},
          "levels": 2}, "base does not read 'x'"),
        ({"kind": "product", "base": {"kind": "cycle", "length": 3}, "levels": 2, "dim": 1},
         "does not read 'dim'"),
    ], ids=["grid-high", "grid-dim", "cycle-length", "tree-branching", "regular-tree-depth",
            "product-levels", "union-parts", "union-spacing-entry", "product-base-length",
            "cycle-extra", "grid-extras", "union-part-extra", "product-base-extra",
            "product-extra"])
    def test_generator_descriptor(self, spec, message):
        with pytest.raises(ConfigError) as info:
            generate(spec)
        assert str(info.value) == f"generator spec {message}"


class TestGridOracle:
    @pytest.mark.parametrize("dim,lo,hi", [(1, -15, 15), (2, -3, 3)])
    def test_matches_coordinate_difference(self, dim, lo, hi):
        g = grid_window(dim, lo, hi)
        coords = g.meta["coords"]
        for x in range(g.n):
            for y in range(g.n):
                expected = sum(abs(a - b) for a, b in zip(coords[x], coords[y]))
                assert g.dist(x, y) == expected


class TestFrontier:
    def test_grid_frontier_is_truncated_neighbourhood(self):
        g = grid_window(2, -3, 3)
        for x in range(g.n):
            # infinite-model degree is 2*dim; truncation shows as a smaller ball
            truncated = len(g.ball(x, 1)) < 1 + 4
            assert (x in g.frontier) == truncated

    @pytest.mark.parametrize("t,full_degree", [
        (tree_window(2, 4), 3),          # interior: 2 children + parent; root is degree-2 in its infinite model
        (regular_tree_window(3, 4), 3),
    ])
    def test_tree_frontier_is_leaf_layer(self, t, full_degree):
        depths = t.meta["depths"]
        depth = t.meta["depth"]
        assert t.frontier == frozenset(v for v in range(t.n) if depths[v] == depth)

    def test_frontier_distances_are_a_new_list(self):
        for s in (grid_window(1, 0, 4), WindowSpace(3, frontier={0}, matrix=[
                [0, 1, 2], [1, 0, Fraction(3, 2)], [2, Fraction(3, 2), 0]])):
            fd = s.frontier_distances()
            want = list(fd)
            fd[1] = fd.pop()
            assert s.frontier_distances() == want and s.frontier_distances() is not fd

    def test_product_frontier(self):
        p = product_with_interval(grid_window(1, 0, 4), 3)
        base_frontier = {0, 4}
        expected = {z * 3 + i for z in base_frontier for i in range(3)}
        assert p.frontier == frozenset(expected)


class TestSerialization:
    @pytest.mark.parametrize("space", [
        grid_window(1, -8, 8),
        cycle_window(12),
        tree_window(2, 4),
        disjoint_union([cycle_window(4), cycle_window(16)], [4, 16]),
        product_with_interval(grid_window(1, -3, 3), 2),
    ], ids=lambda s: s.label)
    def test_round_trip_preserves_metric(self, space):
        doc = space_to_json(space)
        back = space_from_json(doc)
        assert back.n == space.n
        assert back.frontier == space.frontier
        for x in range(space.n):
            for y in range(space.n):
                assert back.dist(x, y) == space.dist(x, y)
        assert space_to_json(back) == doc

    @settings(max_examples=60, deadline=None)
    @given(rational_graphs(), rational_graphs(), st.data())
    def test_rational_graph_files_round_trip(self, first, second, data):
        # random graphs with no generator, their union and a product: the
        # file keeps every edge with its weight, and the reload's distances
        # are the Floyd-Warshall distances of the edges built here by hand
        (n1, e1, f1), (n2, e2, f2) = first, second
        a, b = graph_space(n1, e1, f1), graph_space(n2, e2, f2)
        weight = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))
        spacing = sorted(data.draw(st.lists(weight, min_size=2, max_size=2)))
        levels = data.draw(st.integers(1, 3))
        cases = [
            (a, n1, e1),
            (disjoint_union([a, b], spacing), n1 + n2,
             e1 + [(x + n1, y + n1, w) for x, y, w in e2] + [(0, n1, spacing[1])]),
            (product_with_interval(a, levels), n1 * levels,
             [(z * levels + i, z2 * levels + i, w) for z, z2, w in e1 for i in range(levels)]
             + [(v, v + 1, 1) for v in range(n1 * levels) if (v + 1) % levels]),
        ]
        for space, n, edges in cases:
            doc = space_to_json(space)
            assert "generator" not in doc
            stored = sorted((x, y, Fraction(w)) for x, y, w in doc["metric"]["edges"])
            assert stored == sorted((min(x, y), max(x, y), Fraction(w)) for x, y, w in edges)
            back = space_from_json(doc)
            assert space_to_json(back) == doc
            D = floyd_warshall(n, edges)
            for x in range(n):
                assert [back.dist(x, y) for y in range(n)] == D[x]

    def test_raw_graph_file_without_generator(self):
        doc = space_to_json(grid_window(1, 0, 5))
        del doc["generator"]
        back = space_from_json(doc)
        assert back.dist(0, 5) == 5

    def test_matrix_file(self):
        m = [
            ["0/1", "1/1", "2/1"],
            ["1/1", "0/1", "1/1"],
            ["2/1", "1/1", "0/1"],
        ]
        s = space_from_json(
            {"points": 3, "metric": {"type": "matrix", "entries": m},
             "frontier": [0, 2], "label": "hand"}
        )
        assert s.dist(0, 2) == 2

    @pytest.mark.parametrize("entries", [
        [["0/1"]],
        [["0/1", "1/1"], ["1/1", "0/1"]],
        [["0/1", "1/1", "1/1", "1/1"], ["1/1", "0/1", "1/1", "1/1"],
         ["1/1", "1/1", "0/1", "1/1"], ["1/1", "1/1", "1/1", "0/1"]],
        [["0/1", "1/2", "5/6"], ["1/2", "0/1", "1/3"], ["5/6", "1/3", "0/1"]],
        [["0/1", "3/1", "2/1"], ["3/1", "0/1", "5/1"], ["2/1", "5/1", "0/1"]],
    ], ids=["one-point", "ones-2", "ones-4", "rational", "integer"])
    def test_matrix_file_round_trips_byte_for_byte(self, entries):
        # the rows are rebuilt from the complete graph's weights, or, on an
        # all-ones matrix, which keeps no weights, from its unit edges
        n = len(entries)
        doc = {"points": n, "metric": {"type": "matrix", "entries": entries},
               "frontier": [n - 1], "label": "hand"}
        space = space_from_json(doc)
        assert space.unit_weights == all(v in ("0/1", "1/1") for row in entries for v in row)
        assert dump_json(space_to_json(space)) == dump_json(doc)
        for x, row in enumerate(entries):
            assert [space.dist(x, y) for y in range(n)] == list(map(Fraction, row))

    @settings(max_examples=40, deadline=None)
    @given(rational_graphs())
    def test_floyd_warshall_matrix_files_round_trip(self, graph):
        n, edges, frontier = graph
        entries = [[f"{d.numerator}/{d.denominator}" for d in row]
                   for row in floyd_warshall(n, edges)]
        doc = {"points": n, "metric": {"type": "matrix", "entries": entries},
               "frontier": sorted(frontier), "label": "fw"}
        assert dump_json(space_to_json(space_from_json(doc))) == dump_json(doc)

    def test_bad_files_raise_config_error(self):
        with pytest.raises(ConfigError):
            space_from_json({"points": 2})
        with pytest.raises(ConfigError):
            space_from_json(
                {"points": 2, "metric": {"type": "matrix",
                                         "entries": [["0/1", "1/1"], ["2/1", "0/1"]]},
                 "frontier": [], "label": ""}
            )


def space_digest(space):
    return hashlib.sha256(dump_json(space_to_json(space)).encode()).hexdigest()


class TestGeneratorDescriptor:
    """Each generator records its own descriptor; the space files it gives
    are pinned byte for byte (sha256 of the dumped JSON) to the output of
    the earlier code that rebuilt the descriptor from scattered meta keys."""

    @pytest.mark.parametrize("spec, digest", [
        ({"kind": "grid", "dim": 2, "low": -2, "high": 3},
         "c17290205c83ed1e117805da3886dff01be9088ce5b4982eae790b510e7f4146"),
        ({"kind": "grid", "low": 0, "high": 6},
         "18e07187af3b15cc994aa6a84aa9f534e4f0da07793093ccdb77c5fffb79c482"),
        ({"kind": "cycle", "length": 7},
         "c2532458a8e37f2081b600022ea7e6c4b8fa7c5db3fe8bc8ceb7cc17ff87112a"),
        ({"kind": "tree", "branching": 3, "depth": 2},
         "016a863da7cb7d578f267e88330eba6d1590f651b3ddd4170310bb5472b74dfd"),
        ({"kind": "regular_tree", "degree": 3, "depth": 3},
         "53bf2f82986c973a4e52591283946c57c043e874782469157ab886d7770e967a"),
        ({"kind": "product", "base": {"kind": "cycle", "length": 5}, "levels": 3},
         "5691196e321d5df2c836c634e916b9f8c17c37778af7ed204603138fd4213ef1"),
        ({"kind": "union", "spacing": ["2", "7/2"], "parts": [
            {"kind": "grid", "dim": 1, "low": 0, "high": 4}, {"kind": "cycle", "length": 4}]},
         "3a822167c81bd8c333d251b6b0e8fbb1051bd89ede6699f979196a0bf0aaf943"),
        ({"kind": "union", "spacing": ["3/2", "4"], "parts": [
            {"kind": "product", "base": {"kind": "tree", "branching": 2, "depth": 2},
             "levels": 2},
            {"kind": "union", "spacing": ["1", "1"], "parts": [
                {"kind": "product", "base": {"kind": "grid", "dim": 1, "low": 0, "high": 3},
                 "levels": 3},
                {"kind": "regular_tree", "degree": 3, "depth": 1}]}]},
         "4e52f8f64b9f317506815ebe45243a0c77b417646e5a87f2fcdb3f53d7caf3b3"),
    ], ids=["grid", "grid-default-dim", "cycle", "tree", "regular-tree", "product", "union",
            "union-of-products"])
    def test_space_file_bytes_pinned(self, spec, digest):
        space = generate(spec)
        assert space_digest(space) == digest
        doc = space_to_json(space)
        assert space_to_json(generate(doc["generator"])) == doc

    def test_box_space_bytes_pinned(self):
        space = build_box_space(4, 3).space
        assert space_digest(space) == (
            "67eafab0dfbd3306a02d55b7c00cecdf6639b27b3b21c967f273b6bb2b7d35f3")
        assert space_to_json(space)["generator"]["kind"] == "union"

    def test_spaces_without_a_generator(self):
        # library-only outputs: no CLI command writes these files; a union
        # or product over the subspace is a graph file
        sub = subspace(grid_window(1, 0, 5), [0, 2, 3])
        matrix = space_from_json({"points": 2, "frontier": [0], "label": "m", "metric": {
            "type": "matrix", "entries": [["0", "1"], ["1", "0"]]}})
        for space, digest in [
            (sub, "dff4c817a6e04ddee9af6311589e257d22c2c3d413deda9453e3c084982c6466"),
            (product_with_interval(sub, 2),
             "2740301b8b11e6e967741293376a96b01a3ba4928f50c4d4fec80f7ce02b7361"),
            (disjoint_union([grid_window(1, 0, 2), sub], [1, 2]),
             "caf19f3be1718e388eda36a475d032b5341f6d29ca3ca431be3a81bcb721d995"),
            (matrix, None),
        ]:
            assert "generator" not in space_to_json(space), space.label
            assert digest is None or space_digest(space) == digest, space.label


# -- generators build trusted graphs ------------------------------------------

RATIONAL = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))


def generator_specs(depth=2):
    """Generator descriptors of every kind: grids of dimension 1 to 3 down to
    a single point, cycles of length 1 to 7, trees and regular trees of depth
    0 up, and, while `depth` lasts, unions with rational spacings and
    products over smaller descriptors."""
    leaves = st.one_of(
        st.integers(1, 3).flatmap(lambda dim: st.builds(
            lambda low, size: {"kind": "grid", "dim": dim, "low": low, "high": low + size},
            st.integers(-3, 3), st.integers(0, (6, 3, 2)[dim - 1]))),
        st.builds(lambda n: {"kind": "cycle", "length": n}, st.integers(1, 7)),
        st.builds(lambda b, d: {"kind": "tree", "branching": b, "depth": d},
                  st.integers(1, 3), st.integers(0, 3)),
        st.builds(lambda k, d: {"kind": "regular_tree", "degree": k, "depth": d},
                  st.integers(2, 4), st.integers(0, 2)),
    )
    if not depth:
        return leaves
    inner = generator_specs(depth - 1)
    unions = st.lists(inner, min_size=1, max_size=3).flatmap(lambda parts: st.builds(
        lambda spacing: {"kind": "union", "parts": parts,
                         "spacing": [f"{s.numerator}/{s.denominator}" for s in sorted(spacing)]},
        st.lists(RATIONAL, min_size=len(parts), max_size=len(parts))))
    products = st.builds(lambda base, levels: {"kind": "product", "base": base, "levels": levels},
                         inner, st.integers(1, 3))
    return st.one_of(leaves, unions, products)


def assert_same_as_rebuild(space):
    twin = rebuild_space(space)
    for field in ("n", "_nbrs", "_wts", "_scale", "_bound", "_dense", "frontier", "label"):
        assert getattr(space, field) == getattr(twin, field), field
    assert space_to_json(space) == space_to_json(twin)


class TestTrustedGenerators:
    """Every generator skips the constructor's checks, so its output must be
    what the checking constructor makes of the same graph."""

    @settings(max_examples=150, deadline=None)
    @given(generator_specs())
    # no unit edge, and every spacing edge 1 at scale L = 2: not a unit graph
    @example({"kind": "union", "spacing": ["1/2", "1/2"], "parts": [
        {"kind": "grid", "dim": 1, "low": 0, "high": 0}, {"kind": "cycle", "length": 1}]})
    def test_every_kind_matches_its_checked_rebuild(self, spec):
        space = generate(spec)
        assert_same_as_rebuild(space)
        assert space.meta["spec"] == spec and "kind" not in space.meta

    @settings(max_examples=60, deadline=None)
    @given(generator_specs(1), rational_graphs(), st.lists(RATIONAL, min_size=2, max_size=2),
           st.integers(1, 3))
    def test_unions_and_products_over_a_matrix_part(self, spec, graph, spacing, levels):
        # the matrix part joins as its complete graph, so each is a graph
        n, edges, frontier = graph
        matrix = WindowSpace(n, frontier=frontier, matrix=floyd_warshall(n, edges))
        for space in (disjoint_union([generate(spec), matrix], sorted(spacing)),
                      disjoint_union([matrix, generate(spec)], sorted(spacing)),
                      product_with_interval(matrix, levels)):
            assert not space._dense and space.meta["spec"] is None and "kind" not in space.meta
            assert_same_as_rebuild(space)

    @settings(max_examples=30, deadline=None)
    @given(unit_graphs(), st.integers(1, 3))
    def test_a_union_or_product_over_a_matrix_part_is_a_graph_file(self, graph, levels):
        # its reload has the distances of the union and product conventions
        # over the part's Floyd-Warshall distances
        n, edges, frontier = graph
        D = np.array([[int(d) for d in row] for row in floyd_warshall(n, edges)])
        matrix = WindowSpace(n, frontier=frontier, matrix=D.tolist())
        line = np.arange(3)
        steps = abs(np.arange(levels)[:, None] - np.arange(levels)[None, :])
        across = 2 + line[:, None] + D[0][None, :]  # spacing[1] + d(x, base) + d(base, y)
        for space, expected in [
            (disjoint_union([grid_window(1, 0, 2), matrix], [1, 2]),
             np.block([[abs(line[:, None] - line[None, :]), across], [across.T, D]])),
            (product_with_interval(matrix, levels),  # (z, i) has id z * levels + i
             (D[:, None, :, None] + steps[None, :, None, :]).reshape(n * levels, -1)),
        ]:
            doc = space_to_json(space)
            assert doc["metric"]["type"] == "graph"
            back = space_from_json(doc)
            assert (dist_matrix(back) == expected).all()
            assert space_to_json(back) == doc

    @pytest.mark.parametrize("spec, digest", [
        ({"kind": "grid", "dim": 3, "low": -1, "high": 2},
         "4f3c9f6f41220bc1a5f84c1f4b2679ff22c7459859a479fb320f1d02d1f09280"),
        ({"kind": "cycle", "length": 7},
         "64d3352fba979e2d9835a4048fce6027b59e106199121d87a6ba9a58b7742217"),
        ({"kind": "regular_tree", "degree": 3, "depth": 3},
         "afec097c02ed900e911b702450a850724295a34e951749eafeb2b563eb62f45d"),
        ({"kind": "union", "spacing": ["3/2", "4", "9/2"], "parts": [
            {"kind": "product", "base": {"kind": "tree", "branching": 2, "depth": 2},
             "levels": 3},
            {"kind": "union", "spacing": ["1", "5/3"], "parts": [
                {"kind": "product", "base": {"kind": "grid", "dim": 2, "low": 0, "high": 2},
                 "levels": 2},
                {"kind": "cycle", "length": 5}]},
            {"kind": "grid", "dim": 1, "low": 0, "high": 0}]},
         "243faa70bde40141ed3ae539d9def090808ec10bff9c838dac1cb651acbdbc8a"),
    ], ids=["grid-3d", "cycle", "regular-tree", "union-of-products"])
    def test_adjacency_order_pinned(self, spec, digest):
        # searches visit neighbours in this order, so it is pinned (sha256
        # of the repr of `_nbrs`, `_wts` and `_scale`) to the output of the
        # earlier builders that appended each edge at both ends
        space = generate(spec)
        text = repr((space._nbrs, space._wts, space._scale))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("spec", [
        {"kind": "grid", "dim": 2, "low": 0, "high": 60},
        {"kind": "tree", "branching": 2, "depth": 11},
        {"kind": "union", "parts": [{"kind": "grid", "dim": 2, "low": 0, "high": 11}] * 5,
         "spacing": [f"{2 * k + 3}/2" for k in range(5)]},
    ], ids=["grid-61x61", "tree-depth-11", "union-of-five-grids"])
    def test_one_int_object_per_point(self, spec):
        # a search's dict lookup that misses on identity falls back to
        # comparing the ints, so every edge shares its id's one int object
        space = generate(spec)
        assert len({id(y) for ys in space._nbrs for y in ys}) == space.n


class TestGeneratedFileMustMatch:
    """A file with a generator descriptor loads as the generator's space, so
    its stored points, label, metric and frontier must be that space's."""

    @pytest.fixture(scope="class")
    def tree_doc(self):
        return space_to_json(tree_window(2, 11))

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["metric"]["edges"][0].__setitem__(2, "7/1"), "metric"),
        (lambda d: d.update(label="forged"), "label"),
        (lambda d: d.update(points=d["points"] + 1), "points"),
        (lambda d: d["frontier"].pop(), "frontier"),
        (lambda d: d["metric"]["edges"].pop(), "metric"),
    ], ids=["edge-weight", "label", "points", "frontier", "edge-dropped"])
    def test_mismatch_names_the_field(self, tree_doc, mutate, field):
        doc = copy.deepcopy(tree_doc)
        mutate(doc)
        with pytest.raises(ConfigError) as info:
            space_from_json(doc)
        assert str(info.value) == f"space file {field} does not match its generator descriptor"

    def test_descriptor_read_once(self, tree_doc, monkeypatch):
        # the build reads the descriptor the file's form has read, not the raw one again
        reads = []
        read = GENERATOR.read
        monkeypatch.setattr(GENERATOR, "read", lambda *a: reads.append(a) or read(*a))
        assert space_from_json(tree_doc).n == 4095
        assert len(reads) == 1

    @pytest.mark.parametrize("spec", [
        {"kind": "grid", "dim": 3, "low": -1, "high": 2}, {"kind": "grid", "low": 0, "high": 4},
        {"kind": "grid", "dim": 4, "low": 7, "high": 7}, {"kind": "cycle", "length": 9},
        {"kind": "tree", "branching": 1, "depth": 6}, {"kind": "tree", "branching": 3, "depth": 3},
        {"kind": "regular_tree", "degree": 2, "depth": 5},
        {"kind": "regular_tree", "degree": 4, "depth": 2},
        {"kind": "union", "parts": [{"kind": "cycle", "length": 3},
                                    {"kind": "tree", "branching": 2, "depth": 2}],
         "spacing": ["1", "2"]},
        {"kind": "product", "base": {"kind": "tree", "branching": 2, "depth": 2}, "levels": 3},
    ], ids=["grid", "grid-no-dim", "grid-one-point", "cycle", "path-tree", "tree",
            "regular-path", "regular-tree", "union", "product"])
    def test_point_count_matches_the_build(self, spec):
        # the count the file's points are held to before anything is built:
        # exact up to the cap, and past the cap as soon as the build would be
        n = generate(spec).n
        for cap in (1, n - 1, n, n + 1, 10 ** 9):
            count = _spec_points(spec, cap)
            assert count == n if cap >= n else count > cap, cap

    @pytest.mark.parametrize("spec", [
        {"kind": "grid", "dim": 10 ** 9, "low": 0, "high": 1},
        {"kind": "tree", "branching": 2, "depth": 10 ** 9},
        {"kind": "regular_tree", "degree": 3, "depth": 10 ** 9},
        # the base is built first, so its count past the cap is the product's
        {"kind": "product", "base": {"kind": "grid", "dim": 10 ** 9, "low": 0, "high": 1},
         "levels": 10 ** 9},
    ], ids=["grid", "tree", "regular-tree", "product-base"])
    def test_point_count_stops_past_the_cap(self, spec):
        count = _spec_points(spec, 121)
        assert 121 < count < 4 * 121

    @pytest.mark.parametrize("spec", [
        {"kind": "union", "parts": [{"kind": "grid", "dim": 64, "low": 0, "high": 1},
                                    {"kind": "cycle", "length": -7}], "spacing": [1, 2]},
        {"kind": "product", "base": {"kind": "grid", "dim": 64, "low": 0, "high": 1},
         "levels": 0},
        {"kind": "union", "parts": [
            {"kind": "product", "base": {"kind": "grid", "dim": 64, "low": 0, "high": 1},
             "levels": -1}, {"kind": "cycle", "length": 249}], "spacing": [1, 2]},
    ], ids=["union-later-part-below-0", "product-levels-0", "product-levels-below-0"])
    def test_point_count_past_the_cap_stays_past_it(self, spec):
        # generate builds a union's parts and a product's base first, so a
        # count below 0 after them cannot bring the count back to the cap
        assert _spec_points(spec, 121) == 128

    @pytest.mark.parametrize("spec, counted", [
        ({"kind": "wat"}, False), ({"kind": "grid", "dim": 0, "low": 0, "high": 3}, True),
        ({"kind": "grid", "dim": True, "low": 0, "high": 3}, False),
        ({"kind": "cycle", "length": 0}, True),
        ({"kind": "tree", "branching": 0, "depth": 3}, True),
        ({"kind": "regular_tree", "degree": 1, "depth": 3}, True),
        ({"kind": "union", "parts": [{"kind": "cycle", "length": 3}], "spacing": "1"}, False),
        ({"kind": "union", "parts": [{"kind": "cycle", "length": 3}, {"kind": "wat"}],
          "spacing": ["1", "2"]}, False),
        ({"kind": "product", "base": {"kind": "cycle", "length": 3}}, False),
        # read whole before its base is counted or built
        ({"kind": "product", "base": {"kind": "grid", "dim": 10 ** 9, "low": 0, "high": 1},
          "levels": "x"}, False),
    ], ids=["unknown-kind", "grid-dim-0", "grid-dim-bool", "cycle-empty", "tree-branching-0",
            "regular-tree-degree-1", "union-spacing-str", "union-part-unknown",
            "product-no-levels", "product-levels-str"])
    def test_no_point_count_where_generate_refuses(self, spec, counted):
        with pytest.raises(ConfigError) as refused:
            generate(spec)
        if not counted:  # refused as it is read: the count raises generate's own error
            with pytest.raises(ConfigError) as info:
                _spec_points(spec, 100)
            assert str(info.value) == str(refused.value)
            return
        # a value the build refuses: refused in a file too, whatever its points
        assert_files_refused(spec, str(refused.value), range(1, 13))

    def test_descriptor_key_not_read(self):
        # such a file used to load, and re-serialize without the key
        doc = space_to_json(cycle_window(5))
        doc["generator"]["foo"] = 1
        with pytest.raises(ConfigError) as info:
            space_from_json(doc)
        assert str(info.value) == "space file generator does not read 'foo'"

    def test_descriptor_without_a_default_key(self):
        # generate fills a grid's missing dim with 1; such a file used to load
        # and re-serialize with "dim": 1, so it did not round-trip
        doc = space_to_json(grid_window(1, 0, 4))
        del doc["generator"]["dim"]
        with pytest.raises(ConfigError) as info:
            space_from_json(doc)
        assert str(info.value) == "space file generator does not match its generator descriptor"
        assert generate(doc["generator"]).meta["spec"]["dim"] == 1

    def test_frontier_is_compared_as_a_set(self, tree_doc):
        doc = copy.deepcopy(tree_doc)
        doc["frontier"] = doc["frontier"][::-1] + doc["frontier"][:1]
        assert space_to_json(space_from_json(doc)) == tree_doc


class TestKindsTable:
    """`generate`, the count a file's points are held to, the loader and the
    builders' own descriptors agree over descriptors drawn from `_KINDS`."""

    @staticmethod
    def kinds_read(spec):
        """Every descriptor in `spec`, nested ones too, with its kind's fields."""
        fields = _KINDS[spec["kind"]].form.fields
        yield spec, fields
        for key, (form, _) in fields.items():
            nested = [spec[key]] if form is GENERATOR else spec[key] if (
                isinstance(form, List) and form.item is GENERATOR) else ()
            for part in nested:
                yield from TestKindsTable.kinds_read(part)

    @settings(max_examples=200, deadline=None)
    @given(descriptors())
    def test_count_build_and_file_agree(self, spec):
        try:
            space = generate(spec)
        except ConfigError as e:  # refused in a file too, whatever its points
            count = _spec_points(spec, 10 ** 4)  # the points a file would need to reach the build
            assert_files_refused(spec, str(e), {*range(1, 9), min(max(count, 1), 10 ** 4)})
            return
        n = space.n
        for cap in (1, n - 1, n, n + 1, 10 ** 9):
            count = _spec_points(spec, cap)
            assert count == n if cap >= n else count > cap, cap
        # each builder records exactly the fields its kind's row reads
        for made, fields in self.kinds_read(space.meta["spec"]):
            assert made.keys() == {"kind", *fields}
        doc = space_to_json(space)
        assert space_to_json(space_from_json(doc)) == doc


class TestRememberedBalls:
    """The balls a window remembers: at most its cap of distances (its
    adjacency entries, n(n - 1) on a matrix, and at least n), the oldest
    dropped first, and a remembered ball answers `_ball_ints` and `reach`
    with what a search lists, in its order, without a search."""

    @staticmethod
    def check(n, edges, data):
        D = floyd_warshall(n, edges)
        radii = sorted({d for row in D for d in row} | {Fraction(1, 7)})
        for space, entries in ((graph_space(n, edges), 2 * len(edges)),
                               (WindowSpace(n, matrix=D), n * (n - 1))):
            assert space._cap == max(n, entries)
            for _ in range(12):
                x = data.draw(st.integers(0, n - 1))
                limit = space._limit(data.draw(st.sampled_from(radii)))
                assert list(space._ball_ints(x, limit).items()) == list(
                    space._search((x,), limit).items())
                kept = space._balls.items()
                assert space._held == sum(len(ball) for _, (_, ball) in kept) <= space._cap
                assert all(list(ball.items()) == list(space._search((y,), lim).items())
                           for y, (lim, ball) in kept)

    @settings(max_examples=60, deadline=None)
    @given(unit_graphs(), st.data())
    def test_unit_graphs(self, graph, data):
        n, edges, _ = graph
        self.check(n, edges, data)

    @settings(max_examples=60, deadline=None)
    @given(rational_graphs(), st.data())
    def test_rational_graphs(self, graph, data):
        n, edges, _ = graph
        self.check(n, edges, data)

    def test_a_full_window_family_keeps_at_most_its_cap(self):
        # the 13 x 13 grid's 312 edges give 624 adjacency entries, fewer than
        # the 3,517 distances of its 169 radius-3 balls; its matrix twin's
        # complete graph has 169 * 168 = 28,392, and keeps every ball
        grid = grid_window(2, 0, 12)
        twin = WindowSpace(grid.n, matrix=[[grid.dist(x, y) for y in range(grid.n)]
                                           for x in range(grid.n)])
        for space, cap in ((grid, 624), (twin, 28392)):
            ball_family(space, 3, R=1, epsilon=1)
            kept = list(space._balls)
            assert space._cap == cap
            assert space._held == sum(len(space._balls[x][1]) for x in kept) <= cap
            assert kept == list(range(space.n))[-len(kept):]  # the latest balls
        assert 624 - 25 < grid._held
        assert (len(twin._balls), twin._held) == (169, 3517)

    def test_the_oldest_ball_is_dropped_first(self, monkeypatch):
        line = grid_window(1, 0, 9)  # 9 edges: a cap of 18 distances
        line.ball(0, 8)
        line.ball(9, 8)
        assert (list(line._balls), line._held, line._cap) == ([0, 9], 18, 18)
        line.ball(5, 1)  # 3 more distances: 0's ball goes
        assert (list(line._balls), line._held) == ([9, 5], 12)
        calls = count_searches(line, monkeypatch)
        assert list(line._ball_ints(9, 2).items()) == [(9, 0), (8, 1), (7, 2)]
        assert calls == [] and list(line._balls) == [9, 5]
        line.ball(9, 9)  # a larger ball of 9 replaces its own
        assert (list(line._balls), line._held) == ([5, 9], 13)
        assert len(calls) == 1

    def test_a_one_point_window_keeps_its_ball(self):
        # no adjacency entries, so the cap is n = 1, and the ball fits
        point = grid_window(2, 0, 0)
        assert (point.n, point._cap) == (1, 1)
        assert point.ball(0, 3) == {0}
        assert point.reach(0, {0}, 1) == ([0], 0)
        assert point.support_radius(0, [0]) == 0
        assert (point._balls, point._held) == ({0: (3, {0: 0})}, 1)

    def test_reach_reads_a_remembered_ball(self, monkeypatch):
        line = grid_window(1, 0, 9)
        line.ball(3, 4)
        calls = count_searches(line, monkeypatch)
        # the support within R: the R-ball is the remembered ball's prefix
        assert line.reach(3, {1, 5}, 3) == ([3, 2, 4, 1, 5, 0, 6], 2)
        # the support beyond R: near is the prefix up to R
        assert line.reach(3, {0, 7}, 1) == ([3, 2, 4], 4)
        assert line.support_radius(3, range(8)) == 4
        assert calls == []
        # a support the ball does not hold: one targeted search, not kept
        assert line.reach(3, {9}, 1) == ([3, 2, 4], 6)
        assert len(calls) == 1 and line._balls[3][0] == 4
