"""Window generators, exact metrics, balls, growth profiles, JSON round-trips."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_metric_axioms,
    bfs_all_pairs,
    dist_matrix,
    floyd_warshall,
    graph_space,
    rational_graphs,
    space_adjacency_sets,
)
from folnerflow import (
    WindowSpace,
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
from folnerflow.jsonio import dump_json
from folnerflow.space import check_radius, space_from_json, space_to_json


def ids_of_coords(space, *coords):
    index = space.meta["coord_index"]
    return [index[c if isinstance(c, tuple) else (c,)] for c in coords]


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
    reached, on unit and weighted graphs; matrices read the row. Unknown
    and missing targets are in `test_support_radius_needs_known_points`."""

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


class TestUnitWeights:
    """`unit_weights` and `graph_neighbors` are read from the metric, and
    cannot be set."""

    def test_values(self):
        unit = graph_space(3, [(0, 1, 1), (1, 2, 1)])
        weighted = graph_space(3, [(0, 1, 1), (1, 2, Fraction(1, 2))])
        matrix = WindowSpace(2, matrix=[[0, 1], [1, 0]])
        assert (unit.unit_weights, weighted.unit_weights, matrix.unit_weights) == (
            True, False, False)
        assert unit.graph_neighbors == weighted.graph_neighbors == ((1,), (0, 2), (1,))
        assert matrix.graph_neighbors is None

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
        with pytest.raises(ConfigError, match="edge weight"):
            space_from_json(doc)

    @pytest.mark.parametrize("edge", [[0, 2, "1/1"], [-1, 1, "1/1"]])
    def test_file_with_endpoint_out_of_range(self, edge):
        doc = {"points": 2, "metric": {"type": "graph", "edges": [edge]},
               "frontier": [], "label": ""}
        with pytest.raises(ConfigError, match="outside"):
            space_from_json(doc)


class TestMalformedSpaceFiles:
    """A space file or generator descriptor of the wrong shape is a
    ConfigError naming the field, not a TypeError or a coerced value."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(frontier=[1.5]), "space frontier entry 1.5 is not an int point id"),
        (lambda d: d.update(frontier=["a"]), "space frontier entry 'a' is not an int point id"),
        (lambda d: d.update(frontier=[True]), "space frontier entry True is not an int point id"),
        (lambda d: d.update(frontier=5), "space file frontier must be a list, got 5"),
        (lambda d: d.update(points="3"), "space file points must be a positive int, got '3'"),
        (lambda d: d.update(points=True), "space file points must be a positive int, got True"),
        (lambda d: d.update(metric="graph"), "space file metric must be an object, got 'graph'"),
        (lambda d: d["metric"]["edges"].append([0, 1]),
         "graph edge [0, 1] is not an [x, y, weight] triple"),
        (lambda d: d["metric"].update(edges=5), "space file graph edges must be a list, got 5"),
        (lambda d: d.update(metric={"type": "matrix", "entries": [5]}),
         "space file matrix entries must be a list of rows"),
    ], ids=["frontier-float", "frontier-str", "frontier-bool", "frontier-not-list",
            "points-str", "points-bool", "metric-str", "edge-pair", "edges-not-list",
            "matrix-row-not-list"])
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
        with pytest.raises(ConfigError, match="space frontier entry 2.0 is not an int point id"):
            space_from_json(doc)

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "grid", "low": 0, "high": "5"}, "'grid': high must be an int, got '5'"),
        ({"kind": "grid", "dim": 1.0, "low": 0, "high": 3}, "'grid': dim must be an int, got 1.0"),
        ({"kind": "cycle", "length": True}, "'cycle': length must be an int, got True"),
        ({"kind": "tree", "branching": 2.5, "depth": 2},
         "'tree': branching must be an int, got 2.5"),
        ({"kind": "regular_tree", "degree": 3, "depth": None},
         "'regular_tree': depth must be an int, got None"),
        ({"kind": "product", "base": {"kind": "cycle", "length": 3}, "levels": "2"},
         "'product': levels must be an int, got '2'"),
        ({"kind": "union", "parts": 5, "spacing": [1]},
         "'union': parts and spacing must be lists"),
    ], ids=["grid-high", "grid-dim", "cycle-length", "tree-branching", "regular-tree-depth",
            "product-levels", "union-parts"])
    def test_generator_descriptor(self, spec, message):
        with pytest.raises(ConfigError) as info:
            generate(spec)
        assert str(info.value) == f"generator spec for {message}"


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
        sub = subspace(grid_window(1, 0, 5), [0, 2, 3])
        matrix = space_from_json({"points": 2, "frontier": [0], "label": "m", "metric": {
            "type": "matrix", "entries": [["0", "1"], ["1", "0"]]}})
        for space, digest in [
            (sub, "dff4c817a6e04ddee9af6311589e257d22c2c3d413deda9453e3c084982c6466"),
            (product_with_interval(sub, 2),
             "43f2ea07f282c6ba11c9a21d11802fbaef52a67320036828a7817257c1646938"),
            (disjoint_union([grid_window(1, 0, 2), sub], [1, 2]),
             "fd59bc56f5e5b487dfb9859467fdcfb454944fe704ea0557389acb681d7251cc"),
            (matrix, None),
        ]:
            assert "generator" not in space_to_json(space), space.label
            assert digest is None or space_digest(space) == digest, space.label
