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

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError, NotCoarselyUnbounded
from .jsonio import format_rational, parse_rational
from .space import PointId, WindowSpace, check_radius


@dataclass(frozen=True)
class RipsGraph:
    """Edge set at scale r plus its component partition."""

    r: Fraction
    n: int
    neighbors: tuple  # tuple[frozenset[PointId], ...]
    components: tuple  # tuple[frozenset[PointId], ...], sorted by min id

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2


def build_rips(space: WindowSpace, r) -> RipsGraph:
    """Exact-threshold neighbourhood graph of the window at scale r.

    Neighbours are balls without their centre. On a graph metric the
    scale-r components are those of the light edges, of weight w <= r: a
    light edge {x,y} has 0 < d(x,y) <= w <= r, and if 0 < d(x,y) <= r, each
    edge of a shortest x-y path weighs <= d(x,y) <= r. On unit weights with
    r >= 1 every edge is light, so the components come from the graph's own
    edges; for 1 <= r < 2 the neighbours are the graph neighbours too (d is
    an int, so 0 < d <= r means d = 1), with no ball search.
    """
    r = check_radius(r, "scale")
    if r == 0:
        raise ValueError(f"scale must be positive, got {r}")
    points = range(space.n)
    unit = space.unit_weights and r >= 1
    if unit and r < 2:
        neighbors = tuple(frozenset(nb) - {x} for x, nb in zip(points, space.graph_neighbors))
    else:
        neighbors = tuple(b - {x} for x, b in zip(points, space.balls(points, r)))
    light = space.graph_neighbors if unit else neighbors
    return RipsGraph(r=r, n=space.n, neighbors=neighbors, components=_components(light))


def _components(neighbors) -> tuple:
    """The connected components of the graph on 0..len(neighbors)-1 with
    the given neighbour sets, as frozensets sorted by min id."""
    unseen = set(range(len(neighbors)))
    components = []
    while unseen:
        start = min(unseen)
        comp = {start}
        queue = deque([start])
        unseen.discard(start)
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if v in unseen:
                    unseen.discard(v)
                    comp.add(v)
                    queue.append(v)
        components.append(frozenset(comp))
    components.sort(key=min)
    return tuple(components)


@dataclass
class UnboundednessReport:
    """Which components reach the frontier; those that do not are the
    window's witnesses of bounded pieces."""

    passed: bool
    component_count: int
    bounded_components: list  # list[tuple[PointId, ...]]


def check_coarsely_unbounded(space: WindowSpace, rips: RipsGraph) -> UnboundednessReport:
    """Pass iff every component contains a frontier point."""
    bounded = [
        tuple(sorted(c)) for c in rips.components if not (c & space.frontier)
    ]
    return UnboundednessReport(
        passed=not bounded,
        component_count=len(rips.components),
        bounded_components=bounded,
    )


@dataclass(frozen=True)
class FlowField:
    """One outgoing tree edge per non-sink vertex, oriented toward the sink.

    sigma[x] is the next vertex downstream of x; sinks have no image.
    depths[x] counts the sigma-steps from x to its sink, derived at
    construction, which raises ValueError naming the point unless every
    point is an id in 0..n-1, no sink has an edge and every sigma orbit
    stays in the flow (sigma keys and sinks) until it ends on a sink.
    """

    sigma: dict  # PointId -> PointId, sinks absent
    sinks: frozenset
    r: Fraction
    n: int
    depths: dict = field(init=False, repr=False)  # PointId -> int

    def __post_init__(self):
        sigma, n = self.sigma, self.n
        for x in (*self.sinks, *sigma, *sigma.values()):
            if type(x) is not int or not 0 <= x < n:
                raise ValueError(f"point {x!r} is not an id in 0..{n - 1}")
        depths = dict.fromkeys(self.sinks, 0)
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
        object.__setattr__(self, "depths", depths)

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


def build_flow(space: WindowSpace, rips: RipsGraph) -> FlowField:
    """Breadth-first spanning tree per component, rooted at the sink.

    Sink = smallest frontier vertex of the component; BFS visits
    neighbours in increasing id order, and sigma maps each vertex to its
    BFS parent. Raises NotCoarselyUnbounded when a component has no
    frontier vertex to exit through.
    """
    return build_flow_from_parts(rips, space.frontier)


def build_flow_from_parts(rips: RipsGraph, frontier) -> FlowField:
    """build_flow when only the graph and the frontier are at hand (e.g.
    rebuilding from a serialized artifact)."""
    frontier = frozenset(frontier)
    bounded = [tuple(sorted(c)) for c in rips.components if not (c & frontier)]
    if bounded:
        raise NotCoarselyUnbounded(bounded)

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
    return FlowField(sigma=sigma, sinks=frozenset(sinks), r=rips.r, n=rips.n)


# -- serialization ---------------------------------------------------------


def rips_to_json(space: WindowSpace, rips: RipsGraph) -> dict:
    edges = []
    for x in range(rips.n):
        for y in rips.neighbors[x]:
            if x < y:
                edges.append([x, y])
    edges.sort()
    return {
        "r": format_rational(rips.r),
        "points": rips.n,
        "edges": edges,
        "components": [sorted(c) for c in rips.components],
        "frontier": sorted(space.frontier),
    }


def rips_from_json(doc: dict) -> tuple[RipsGraph, frozenset]:
    """Rebuild a RipsGraph (plus the frontier recorded alongside it).

    The components are recomputed from the edges; ConfigError unless
    `points` is a positive int, the stored components match the recomputed
    ones and every frontier entry is a point id."""
    try:
        n = doc["points"]
        r = parse_rational(doc["r"])
        edge_list = doc["edges"]
        frontier = frozenset(doc["frontier"])
        listed = {frozenset(c) for c in doc["components"]}
    except (KeyError, TypeError) as e:
        raise ConfigError(f"rips file missing field: {e}") from e
    if type(n) is not int or n <= 0:
        raise ConfigError(f"rips file points must be a positive int, got {n!r}")
    for f in doc["frontier"]:
        if type(f) is not int or not 0 <= f < n:
            raise ConfigError(f"rips frontier entry {f!r} is not a point id in 0..{n - 1}")
    neighbors = [set() for _ in range(n)]
    for edge in edge_list:
        if not (type(edge) in (list, tuple) and len(edge) == 2
                and all(type(v) is int and 0 <= v < n for v in edge)):
            raise ConfigError(f"rips edge {edge!r} is not two point ids in 0..{n - 1}")
        x, y = edge
        neighbors[x].add(y)
        neighbors[y].add(x)
    components = _components(neighbors)
    for c in components:
        if c not in listed:
            raise ConfigError(f"rips edges make {sorted(c)} a component, "
                              "but the file does not list it")
    if len(listed) != len(components):
        raise ConfigError("rips file lists components that its edges do not form")
    return (
        RipsGraph(
            r=r, n=n,
            neighbors=tuple(frozenset(nb) for nb in neighbors),
            components=components,
        ),
        frontier,
    )


def flow_to_json(flow: FlowField) -> dict:
    return {
        "sigma": sorted([x, sx] for x, sx in flow.sigma.items()),
        "sinks": sorted(flow.sinks),
        "r": format_rational(flow.r),
        "points": flow.n,
    }


def flow_from_json(doc: dict) -> FlowField:
    try:
        sigma = {}
        for x, sx in doc["sigma"]:
            if x in sigma:
                raise ValueError(f"point {x!r} has two sigma edges")
            sigma[x] = sx
        return FlowField(sigma=sigma, sinks=frozenset(doc["sinks"]),
                         r=parse_rational(doc["r"]), n=doc["points"])
    except (KeyError, TypeError) as e:
        raise ConfigError(f"flow file missing field: {e}") from e
    except ValueError as e:
        raise ConfigError(f"flow file is corrupt: {e}") from e
