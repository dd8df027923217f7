"""Neighbourhood graphs, component/frontier checks, and exit flows."""

import copy
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floyd_warshall, graph_space, random_tree_space, rational_graphs, unit_graphs
from folnerflow import (
    NotCoarselyUnbounded,
    WindowSpace,
    cycle_window,
    disjoint_union,
    grid_window,
)
from folnerflow.errors import ConfigError
from folnerflow.rips import (
    FlowField,
    build_flow,
    build_rips,
    check_coarsely_unbounded,
    flow_from_json,
    flow_to_json,
    rips_from_json,
    rips_to_json,
)


def three_points_spaced():
    m = [[Fraction(abs(a - b)) for b in (0, 10, 20)] for a in (0, 10, 20)]
    return WindowSpace(3, frontier=[0, 2], label="0,10,20", matrix=m)


def star_space():
    # ids: 0 = centre, 1, 2 = leaves; frontier marks leaf 1
    m = [
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(0), Fraction(2)],
        [Fraction(1), Fraction(2), Fraction(0)],
    ]
    return WindowSpace(3, frontier=[1], label="star", matrix=m)


class TestBuildRips:
    def test_integer_line_is_path(self):
        g = grid_window(1, -5, 5)
        rg = build_rips(g, 1)
        assert len(rg.components) == 1
        assert rg.edge_count() == g.n - 1

    def test_threshold_below_gap(self):
        rg = build_rips(three_points_spaced(), 5)
        assert rg.edge_count() == 0
        assert len(rg.components) == 3

    def test_threshold_at_gap(self):
        rg = build_rips(three_points_spaced(), 10)
        assert rg.edge_count() == 2
        assert len(rg.components) == 1

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            build_rips(cycle_window(4), 0)

    @pytest.mark.parametrize("r", [0.1, 1.0, True, -1])
    def test_float_or_bool_scale_rejected(self, r):
        with pytest.raises(ValueError, match="scale"):
            build_rips(grid_window(1, 0, 9), r)


def rips_oracle(D, r):
    """Neighbours {y : 0 < D[x][y] <= r} and, by a plain BFS over them, the
    components in order of their least point."""
    n = len(D)
    neighbors = tuple(frozenset(y for y in range(n) if 0 < D[x][y] <= r) for x in range(n))
    components, seen = [], set()
    for s in range(n):
        if s not in seen:
            comp, stack = {s}, [s]
            while stack:
                for v in neighbors[stack.pop()] - comp:
                    comp.add(v)
                    stack.append(v)
            seen |= comp
            components.append(frozenset(comp))
    return neighbors, tuple(components)


@st.composite
def scales(draw, edges):
    """A scale below the lightest weight, in [1, 2), an integer >= 2 or a
    half-integer: each side of every shortcut `build_rips` takes."""
    lightest = min((w for *_, w in edges), default=Fraction(1))
    return draw(st.one_of(
        st.integers(1, 99).map(lambda k: lightest * Fraction(k, 100)),
        st.integers(0, 11).map(lambda k: 1 + Fraction(k, 12)),
        st.integers(2, 6),
        st.integers(0, 6).map(lambda k: Fraction(2 * k + 1, 2)),
    ))


class TestBuildRipsOracle:
    """`build_rips` on graphs, whose components on unit weights with r >= 1
    and neighbours at 1 <= r < 2 come from the adjacency, and on their matrix
    twins, against Floyd-Warshall."""

    @staticmethod
    def assert_matches(graph, r):
        n, edges, frontier = graph
        D = floyd_warshall(n, edges)
        space = graph_space(n, edges, frontier)
        matrix = WindowSpace(n, frontier=frontier, matrix=D)
        assert space.unit_weights == all(w == 1 for *_, w in edges)
        assert not matrix.unit_weights
        expected = rips_oracle(D, r)
        for s in (space, matrix):
            rg = build_rips(s, r)
            assert (rg.neighbors, rg.components) == expected

    @settings(max_examples=60, deadline=None)
    @given(unit_graphs(), st.data())
    def test_unit_graphs(self, graph, data):
        self.assert_matches(graph, data.draw(scales(graph[1])))

    @settings(max_examples=200, deadline=None)
    @given(rational_graphs(), st.data())
    def test_rational_graphs(self, graph, data):
        self.assert_matches(graph, data.draw(scales(graph[1])))


class TestCoarselyUnbounded:
    def test_line_passes(self):
        g = grid_window(1, -5, 5)
        report = check_coarsely_unbounded(g, build_rips(g, 1))
        assert report.passed and not report.bounded_components

    def test_cycle_fails(self):
        c = cycle_window(9)
        report = check_coarsely_unbounded(c, build_rips(c, 1))
        assert not report.passed
        assert len(report.bounded_components) == 1

    def test_isolated_point_named(self):
        # a cycle(1) part has empty frontier: the union's singleton
        # component never reaches the frontier
        u = disjoint_union([grid_window(1, 0, 5), cycle_window(1)], [6, 6])
        rg = build_rips(u, 1)
        report = check_coarsely_unbounded(u, rg)
        assert not report.passed
        assert report.bounded_components == [(6,)]


class TestBuildFlow:
    def test_path_flow(self):
        g = grid_window(1, 0, 5)  # ids = coords, frontier {0, 5}
        flow = build_flow(g, build_rips(g, 1))
        assert flow.sinks == {0}
        assert flow.sigma == {i: i - 1 for i in range(1, 6)}

    def test_cycle_raises(self):
        c = cycle_window(9)
        with pytest.raises(NotCoarselyUnbounded):
            build_flow(c, build_rips(c, 1))

    def test_star_flow(self):
        s = star_space()
        flow = build_flow(s, build_rips(s, 1))
        assert flow.sinks == {1}
        assert flow.sigma == {0: 1, 2: 0}

    def test_sigma_depth(self):
        g = grid_window(1, 0, 5)
        flow = build_flow(g, build_rips(g, 1))
        assert flow.depth(0) == 0
        assert flow.depth(4) == 4
        s = star_space()
        sflow = build_flow(s, build_rips(s, 1))
        assert sflow.depth(2) == 2
        with pytest.raises(KeyError):
            sflow.depth(7)


class TestFlowInvariants:
    @pytest.mark.parametrize("space,r", [
        (grid_window(1, -20, 20), 1),
        (grid_window(2, -3, 3), 1),
        (grid_window(1, -20, 20), Fraction(3, 2)),
        (disjoint_union([grid_window(1, 0, 9), grid_window(1, 0, 19)], [30, 30]), 1),
    ], ids=["line", "plane", "line-r3/2", "two-lines"])
    def test_flow_edges_orbits_degrees(self, space, r):
        rg = build_rips(space, r)
        flow = build_flow(space, rg)
        # every flow edge is a graph edge at scale r
        for x, sx in flow.sigma.items():
            assert 0 < space.dist(x, sx) <= Fraction(r)
        # orbits are injective and hit the sink in < |component| steps
        comp_of = {}
        for comp in rg.components:
            for v in comp:
                comp_of[v] = comp
        indegree = {}
        for x in range(space.n):
            seen = [x]
            y = x
            while y not in flow.sinks:
                y = flow.sigma[y]
                assert y not in seen
                seen.append(y)
            assert len(seen) <= len(comp_of[x])
            assert flow.depth(x) == len(seen) - 1
        # in-degree bounded by the max graph degree; exactly one sink per component
        for x, sx in flow.sigma.items():
            indegree[sx] = indegree.get(sx, 0) + 1
        max_deg = max(len(nb) for nb in rg.neighbors)
        assert all(c <= max_deg for c in indegree.values())
        for comp in rg.components:
            assert len(comp & flow.sinks) == 1


class TestSerialization:
    def test_rips_round_trip(self):
        g = grid_window(1, -5, 5)
        rg = build_rips(g, 1)
        doc = rips_to_json(g, rg)
        back, frontier = rips_from_json(doc)
        assert frontier == g.frontier
        assert back.neighbors == rg.neighbors
        assert back.components == rg.components
        assert rips_to_json(g, back) == doc

    @pytest.mark.parametrize("edge", [[0, 99], [0, -1]], ids=["past-points", "negative"])
    def test_rips_edge_outside_the_points_rejected(self, edge):
        # an unchecked -1 would wire point 0 to the last point
        g = grid_window(1, 0, 4)
        doc = rips_to_json(g, build_rips(g, 1))
        doc["edges"].append(edge)
        with pytest.raises(ConfigError, match=re.escape(f"rips edge {edge} is not two point ids")):
            rips_from_json(doc)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(frontier=[9], components=[[0, 1, 2, 3, 4, 9]]),
         "rips frontier entry 9 is not a point id in 0..4"),
        (lambda d: d.update(frontier=["0"]), "rips frontier entry '0' is not a point id"),
        (lambda d: d.update(components=[[0, 1, 2, 3, 4, 9]]),
         "rips edges make [0, 1, 2, 3, 4] a component, but the file does not list it"),
        (lambda d: d.update(components=[[0, 1, 2], [3, 4]]),
         "rips edges make [0, 1, 2, 3, 4] a component, but the file does not list it"),
        (lambda d: d["components"].append([3]),
         "rips file lists components that its edges do not form"),
        (lambda d: d.update(points="5"), "rips file points must be a positive int, got '5'"),
    ], ids=["frontier-past-points", "frontier-not-int", "component-past-points",
            "components-split-an-edge", "extra-component", "points-not-int"])
    def test_stored_frontier_and_components_checked(self, mutate, message):
        # the components are recomputed from the edges, so a stored one that
        # differs cannot reach build_flow
        g = grid_window(1, 0, 4)
        doc = rips_to_json(g, build_rips(g, 1))
        mutate(doc)
        with pytest.raises(ConfigError, match=re.escape(message)):
            rips_from_json(doc)

    def test_components_recomputed_from_the_edges(self):
        u = disjoint_union([cycle_window(3), cycle_window(4)], [5, 5])
        doc = rips_to_json(u, build_rips(u, 1))
        doc["components"].reverse()  # order does not matter, content does
        back, _ = rips_from_json(doc)
        assert back.components == (frozenset(range(3)), frozenset(range(3, 7)))

    def test_flow_round_trip(self):
        g = grid_window(1, 0, 7)
        flow = build_flow(g, build_rips(g, 1))
        doc = flow_to_json(flow)
        back = flow_from_json(doc)
        assert back.sigma == flow.sigma
        assert back.sinks == flow.sinks
        assert back.depths == flow.depths
        assert flow_to_json(back) == doc

    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           n=st.integers(min_value=2, max_value=40),
           r=st.sampled_from([1, 2, Fraction(5, 2)]))
    def test_flow_round_trip_random_trees(self, rng, n, r):
        space = random_tree_space(rng, n, rng.randint(1, n - 1))
        flow = build_flow(space, build_rips(space, r))
        back = flow_from_json(flow_to_json(flow))
        assert back == flow
        assert back.depths == flow.depths
        for y, z in flow.sigma.items():
            assert flow.depth(z) == flow.depth(y) - 1


def line_flow_doc():
    """The flow file of the 0..7 line at r=1: sigma(x) = x - 1, sink 0."""
    g = grid_window(1, 0, 7)
    return flow_to_json(build_flow(g, build_rips(g, 1)))


class TestFlowConstruction:
    """A FlowField checks itself; a corrupt flow file is a ConfigError that
    names the offending point."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["sigma"].remove([3, 2]), "orbit of 4 leaves the flow at 3"),
        (lambda d: d["sigma"].__setitem__(1, [2, 3]), "orbit of 2 cycles through 2"),
        (lambda d: d["sigma"].append([0, 1]), "sink 0 has a sigma edge to 1"),
        (lambda d: d["sigma"].append([8, 7]), "point 8 is not an id in 0..7"),
        (lambda d: d.__setitem__("points", 5), "point 5 is not an id in 0..4"),
        (lambda d: d.__setitem__("sinks", [9]), "point 9 is not an id in 0..7"),
        (lambda d: d["sigma"].append([4, 2]), "point 4 has two sigma edges"),
    ], ids=["leaves-flow", "cycle", "sink-with-edge", "id-past-points", "points-too-few",
            "sink-past-points", "point-listed-twice"])
    def test_mutated_flow_file_rejected(self, mutate, message):
        doc = line_flow_doc()
        assert flow_from_json(doc).depth(7) == 7
        mutate(doc)
        with pytest.raises(ConfigError, match=f"flow file is corrupt: .*{message}"):
            flow_from_json(doc)

    def test_copy_and_pickle_rebuild_the_flow(self):
        flow = flow_from_json(line_flow_doc())
        for twin in (copy.copy(flow), pickle.loads(pickle.dumps(flow))):
            assert type(twin) is FlowField and twin == flow and twin.depth(7) == 7

    def test_bad_point_types_rejected(self):
        for sigma, sinks in [({"1": 0}, {0}), ({1: 0}, {True}), ({1: 0.0}, {0})]:
            with pytest.raises(ValueError, match="is not an id"):
                FlowField(sigma=sigma, sinks=frozenset(sinks), r=Fraction(1), n=3)
