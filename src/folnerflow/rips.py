"""Distance-threshold graphs, their components, and exit flows.

The r-neighbourhood graph has an edge {x,y} exactly when 0 < d(x,y) <= r
(the 1-skeleton of the usual scale-r complex; higher simplices are never
needed). A *flow* routes every point one step along a spanning tree
towards a designated exit vertex (the sink), which in a finite window is
the surrogate for a ray to infinity: sinks must sit on the frontier.

Both constructions are deterministic: the sink of a component is its
lexicographically smallest frontier vertex, the spanning tree is the
breadth-first tree from the sink with neighbour ties broken by smallest
point id.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .errors import ConfigError, NotCoarselyUnbounded
from .jsonio import ID, Entries, Exact, List, Obj, Rational, Tuple, format_rational, read
from .space import PointId, WindowSpace, check_radius


class RipsGraph(namedtuple("RipsGraph", [
        "r", "n",
        "neighbors",  # tuple[frozenset[PointId], ...]
        "components"])):  # tuple[frozenset[PointId], ...], sorted by min id
    """Edge set at scale r plus its component partition."""

    __slots__ = ()

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2


def build_rips(space: WindowSpace, r) -> RipsGraph:
    """Exact-threshold neighbourhood graph of the window at scale r.

    Neighbours are balls without their centre, one search each. On unit
    weights with r >= 1 there is one component: a graph metric is connected
    (`WindowSpace` checks it) and every unit edge is a scale-r edge. For
    1 <= r < 2 the neighbours are the graph neighbours too (d is an int, so
    0 < d <= r means d = 1), with no search. For 2 <= r < 3 they are the
    union of the closed graph neighbourhoods of x's closed graph
    neighbourhood, without x, again with no search: 0 < d(x, z) <= r means
    d(x, z) is 1 or 2, that is a path of at most two edges joins x and z.
    Elsewhere the components come from the scale-r edges.
    """
    r = check_radius(r, "scale")
    if r == 0:
        raise ValueError(f"scale must be positive, got {r}")
    points, nbrs = range(space.n), space.graph_neighbors
    unit = space.unit_weights and r >= 1
    if unit and r < 2:
        neighbors = [frozenset(nb) - {x} for x, nb in zip(points, nbrs)]
    elif unit and r < 3:
        neighbors = [frozenset().union(nb, *map(nbrs.__getitem__, nb)) - {x}
                     for x, nb in zip(points, nbrs)]
    else:
        neighbors, limit = [], space._limit(r)
        for x in points:
            ball = space._search((x,), limit)
            del ball[x]
            neighbors.append(frozenset(ball))
    neighbors = tuple(neighbors)
    components = (frozenset(points),) if unit else _components(neighbors)
    return RipsGraph(r=r, n=space.n, neighbors=neighbors, components=components)


def _components(neighbors) -> tuple:
    """The connected components of the graph on 0..len(neighbors)-1 with
    the given neighbour sets, as frozensets sorted by min id (each search
    starts at the smallest point not yet reached)."""
    unseen = set(range(len(neighbors)))
    components = []
    while unseen:
        comp = [min(unseen)]
        unseen.discard(comp[0])
        for u in comp:  # read while it grows: a FIFO queue
            for v in neighbors[u]:
                if v in unseen:
                    unseen.discard(v)
                    comp.append(v)
        components.append(frozenset(comp))
    return tuple(components)


class UnboundednessReport(namedtuple("UnboundednessReport", [
        "passed", "component_count",
        "bounded_components"])):  # list[tuple[PointId, ...]]
    """Which components reach the frontier; those that do not are the
    window's witnesses of bounded pieces."""

    __slots__ = ()


def check_coarsely_unbounded(space, rips: RipsGraph) -> UnboundednessReport:
    """Pass iff every component contains a frontier point; `space` is the
    window or its bare frontier."""
    frontier = getattr(space, "frontier", space)
    bounded = [tuple(sorted(c)) for c in rips.components if not (c & frontier)]
    return UnboundednessReport(
        passed=not bounded,
        component_count=len(rips.components),
        bounded_components=bounded,
    )


class FlowField(namedtuple("FlowField", [
        "sigma",  # PointId -> PointId, sinks absent
        "sinks", "r", "n",
        "depths"])):  # PointId -> int
    """One outgoing tree edge per non-sink vertex, oriented toward the sink.

    sigma[x] is the next vertex downstream of x; sinks have no image.
    depths[x] counts the sigma-steps from x to its sink, derived at
    construction, which raises ValueError naming the point unless every
    point is an id in 0..n-1, no sink has an edge and every sigma orbit
    stays in the flow (sigma keys and sinks) until it ends on a sink.
    """

    __slots__ = ()

    def __new__(cls, sigma, sinks, r, n):
        for x in (*sinks, *sigma, *sigma.values()):
            if type(x) is not int or not 0 <= x < n:
                raise ValueError(f"point {x!r} is not an id in 0..{n - 1}")
        return cls._trusted(sigma, sinks, r, n)

    @classmethod
    def _trusted(cls, sigma, sinks, r, n):
        """The flow of point ids built by this library or read by a form: its
        orbits checked, as in `FlowField`, but not its ids."""
        depths = dict.fromkeys(sinks, 0)
        for s in depths:
            if s in sigma:
                raise ValueError(f"sink {s} has a sigma edge to {sigma[s]}")
        for x in sigma:
            trail = {}  # the orbit of x until a point of known depth
            y = x
            while y not in depths:
                if y in trail:
                    raise ValueError(f"the sigma orbit of {x} cycles through {y}")
                if y not in sigma:
                    raise ValueError(f"the sigma orbit of {x} leaves the flow at {y}")
                trail[y] = None
                y = sigma[y]
            for i, t in enumerate(reversed(trail), start=depths[y] + 1):
                depths[t] = i
        return super().__new__(cls, sigma, sinks, r, n, depths)

    def __getnewargs__(self):  # copy and pickle rebuild from the four inputs
        return self[:4]

    def depth(self, x: PointId) -> int:
        try:
            return self.depths[x]
        except KeyError:
            raise KeyError(f"point {x} is not covered by this flow") from None


def check_flow_on_space(flow: FlowField, space: WindowSpace) -> None:
    """ConfigError naming the first misfit unless flow.n == space.n, every
    sink is on the frontier and every sigma edge (one targeted search each)
    has length <= flow.r. `build_flow` meets all three by design."""
    if flow.n != space.n:
        raise ConfigError(f"flow has {flow.n} points but the space has {space.n}")
    off = sorted(flow.sinks - space.frontier)
    if off:
        raise ConfigError(f"flow sink {off[0]} is not on the frontier of the space")
    for x, y in flow.sigma.items():
        d = space.support_radius(x, (y,))
        if d > flow.r:
            raise ConfigError(f"flow edge {x} -> {y} has length {format_rational(d)}, "
                              f"more than r = {format_rational(flow.r)}")


def build_flow(space, rips: RipsGraph) -> FlowField:
    """Breadth-first spanning tree per component, rooted at the sink.

    `space` is the window or its bare frontier (as `rips_from_json` gives
    it); only the frontier is read. Sink = smallest frontier vertex of the
    component; BFS visits neighbours in increasing id order, and sigma maps
    each vertex to its BFS parent. Raises NotCoarselyUnbounded when a
    component has no frontier vertex to exit through.
    """
    frontier = frozenset(getattr(space, "frontier", space))
    reach = check_coarsely_unbounded(frontier, rips)
    if not reach.passed:
        raise NotCoarselyUnbounded(reach.bounded_components)
    sigma = {}
    sinks = []
    for comp in rips.components:
        sink = min(comp & frontier)
        sinks.append(sink)
        queue = deque([sink])
        while queue:
            u = queue.popleft()
            for v in sorted(rips.neighbors[u]):
                if v != sink and v not in sigma:  # not yet reached
                    sigma[v] = u
                    queue.append(v)
    return FlowField._trusted(sigma, frozenset(sinks), rips.r, rips.n)


# -- serialization ---------------------------------------------------------


def rips_to_json(space: WindowSpace, rips: RipsGraph) -> dict:
    return {
        "r": format_rational(rips.r),
        "points": rips.n,
        "edges": sorted([x, y] for x in range(rips.n) for y in rips.neighbors[x] if x < y),
        "components": [sorted(c) for c in rips.components],
        "frontier": sorted(space.frontier),
    }


RIPS = Obj({"points": Exact(int, 1), "r": Rational("> 0"), "edges": List(Tuple(ID, ID)),
            "components": List(List(ID)), "frontier": List(ID)})


def rips_from_json(doc: dict) -> tuple[RipsGraph, frozenset]:
    """The RipsGraph of a file its form `RIPS` reads, and the frontier stored
    beside it; ConfigError unless its edges form the components it lists."""
    d = read(doc, RIPS, "rips file")
    n, listed = d["points"], set(map(frozenset, d["components"]))
    if n > sum(map(len, listed)):  # checked before n neighbour sets are made
        raise ConfigError(f"rips file points {n} exceed the points its components list")
    neighbors = [set() for _ in range(n)]
    for x, y in d["edges"]:
        neighbors[x].add(y)
        neighbors[y].add(x)
    components = _components(neighbors)
    for c in components:
        if c not in listed:
            raise ConfigError(f"rips edges make {sorted(c)} a component, "
                              "but the file does not list it")
    if len(listed) != len(components):
        raise ConfigError("rips file lists components that its edges do not form")
    return (RipsGraph(d["r"], n, tuple(map(frozenset, neighbors)), components),
            frozenset(d["frontier"]))


def flow_to_json(flow: FlowField) -> dict:
    return {
        "sigma": sorted([x, sx] for x, sx in flow.sigma.items()),
        "sinks": sorted(flow.sinks),
        "r": format_rational(flow.r),
        "points": flow.n,
    }


FLOW = Obj({"points": Exact(int, 1), "r": Rational("> 0"), "sinks": List(ID),
            "sigma": Entries(ID, ID)})


def flow_from_json(doc: dict) -> FlowField:
    """The flow of a file its form `FLOW` reads, its orbits checked by `FlowField`."""
    d = read(doc, FLOW, "flow file")
    try:
        return FlowField._trusted(d["sigma"], frozenset(d["sinks"]), d["r"], d["points"])
    except ValueError as e:
        raise ConfigError(f"flow file is corrupt: {e}") from e
