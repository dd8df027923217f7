"""Finite-window models of discrete bounded-geometry metric spaces.

A window is a finite point set with an exact rational metric plus a
*frontier*: the points whose neighbourhoods were cut off when the
(conceptually infinite) space was truncated to a finite piece. Downstream
code uses frontier membership as the finite surrogate for "direction to
infinity": a neighbourhood-graph component that touches the frontier is
treated as unbounded, one that does not as genuinely bounded.

Every distance and comparison is exact, with no floating point. A graph
metric keeps, per point, the tuple of its neighbour ids and the tuple of
their edge weights as ints at a scale L, the least common multiple of the
weight denominators (no weight tuples when every weight is 1), so distances
inside the library are ints d_int = L * d. `dist`, balls, set
neighbourhoods, frontier distances and `support_radius` (max distance to a
point set) all come from one truncated search: a BFS one node at a time
when every weight is 1, int Dijkstra otherwise; `dist` and
`support_radius` stop at their last target. A radius R (an int or
Fraction >= 0, see `check_radius`) is compared as d_int <= floor(R * L).
`balls(centres, R)` gives the balls of one radius at many centres with R
checked once. A matrix metric has its own L. `fractions.Fraction` appears
only at the API and JSON boundary. The int adjacency is a graph metric's only
representation, and `nearest` gives every point its closest source in one
multi-source search. Generators build adjacency; only a union or product
over a matrix part becomes a matrix.

Point ids are dense integers 0..n-1.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ConfigError
from .jsonio import dump_json, format_rational, load_json, parse_rational, to_doc

PointId = int
# the weights of a unit-weight graph, whose `_wts` is None, for zip
_ONES = itertools.repeat(1)


def check_radius(R, name="radius") -> Fraction:
    """R as a Fraction; ValueError unless R is an int or Fraction >= 0 (a
    float is rejected, not rounded; so is a bool)."""
    if isinstance(R, bool) or not isinstance(R, numbers.Rational) or R < 0:
        raise ValueError(f"{name} must be an int or Fraction >= 0, got {R!r}")
    return Fraction(R)


class WindowSpace:
    """A finite metric window with a marked frontier.

    Exactly one of ``matrix`` / ``adjacency`` must be supplied as the
    metric: a symmetric n x n matrix with a zero diagonal and positive
    entries off it, or the adjacency of a connected graph with positive
    int or Fraction weights, whose shortest-path metric is the space's.

    A graph is kept as two parallel tuples per point: `_nbrs[x]`, the
    neighbour ids of x, and `_wts[x]`, the weights of those edges as ints
    at scale L, where `_wts` is None when every weight is 1. Balls come in
    batches from `balls(centres, R)`, which checks R once.
    """

    def __init__(
        self,
        n: int,
        *,
        frontier: Iterable[PointId] = (),
        label: str = "",
        matrix: Optional[Sequence[Sequence[Fraction]]] = None,
        adjacency: Optional[Sequence[Sequence[tuple[PointId, Fraction]]]] = None,
        meta: Optional[dict] = None,
    ):
        if n <= 0:
            raise ValueError(f"a window needs at least one point, got n={n}")
        if (matrix is None) == (adjacency is None):
            raise ValueError("supply exactly one of matrix= or adjacency=")
        self.n = n
        self.frontier = frozenset(frontier)
        self.label = label
        self.meta = meta or {}
        self._frontier_int: Optional[list] = None
        self._frontier_dist: Optional[list] = None

        bad = [x for x in self.frontier if not (type(x) is int and 0 <= x < n)]
        if bad:
            raise ValueError(f"frontier ids outside 0..{n - 1}: {bad[:5]}")

        if matrix is not None:
            self._matrix = [[Fraction(v) for v in row] for row in matrix]
            self._nbrs = self._wts = None
            self._check_matrix()
            self._scale = math.lcm(*(v.denominator for row in self._matrix for v in row))
        else:
            self._matrix = None
            if len(adjacency) != n:
                raise ValueError("adjacency length != n")
            # distances inside the library are ints at scale L, the least
            # common multiple of the weight denominators: d = d_int / L
            L, all_int, unit = 1, True, True
            nbrs = []
            for x, pairs in enumerate(adjacency):
                for y, w in pairs:
                    if type(y) is not int or not 0 <= y < n:
                        raise ValueError(f"edge endpoint {y!r} at {x} is outside 0..{n - 1}")
                    if type(w) not in (int, Fraction) or w <= 0:
                        raise ValueError(f"edge weight {w!r} on ({x}, {y}) must be a "
                                         "positive int or Fraction")
                    if w != 1:
                        unit = False
                    if type(w) is not int:
                        all_int = False
                        L = math.lcm(L, w.denominator)
                nbrs.append(tuple([y for y, _ in pairs]))
            self._scale = L
            self._nbrs = tuple(nbrs)
            self._wts = None if unit else tuple(
                tuple([w for _, w in pairs]) if all_int else
                tuple([w.numerator * (L // w.denominator) for _, w in pairs])
                for pairs in adjacency
            )
            # bounds every shortest path, as an int at scale L
            self._bound = n if unit else sum(map(sum, self._wts))
            self._check_connected()

    @property
    def unit_weights(self) -> bool:
        """True on a graph whose weights are all 1; False on a weighted graph
        or a matrix. Read from the metric, so it cannot disagree with it."""
        return self._matrix is None and self._wts is None

    @property
    def graph_neighbors(self) -> Optional[tuple]:
        """Per point, the tuple of the ids of its graph neighbours (None on a
        matrix). On unit weights d(x, y) = 1 exactly for the ids y != x of
        x's tuple."""
        return self._nbrs

    def _check_matrix(self):
        m = self._matrix
        if len(m) != self.n or any(len(row) != self.n for row in m):
            raise ValueError("matrix must be n x n")
        for i in range(self.n):
            if m[i][i] != 0:
                raise ValueError(f"dist({i},{i}) != 0")
            for j in range(i + 1, self.n):
                if m[i][j] != m[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
                if m[i][j] <= 0:
                    raise ValueError(f"dist({i},{j}) must be positive")

    def _check_connected(self):
        reached = len(self._search((0,)))
        if reached != self.n:
            raise ValueError(
                "graph metric requires a connected graph; "
                f"only {reached} of {self.n} points reachable from 0"
            )

    def _edges(self, x: PointId) -> list:
        """[(y, weight)] for the edges at x, weights as Fractions."""
        wts = self._wts
        L = self._scale
        return [(y, Fraction(w, L))
                for y, w in zip(self._nbrs[x], _ONES if wts is None else wts[x])]

    # -- metric queries ----------------------------------------------------

    def _check_point(self, x: PointId):
        if not (type(x) is int and 0 <= x < self.n):
            raise KeyError(f"unknown point id {x!r}")

    def _limit(self, R) -> int:
        """floor(R * L) for a radius R checked by `check_radius`: as every
        d_int is an int, d_int <= R * L iff d_int <= floor(R * L)."""
        R = check_radius(R)
        return R.numerator * self._scale // R.denominator

    def dist(self, x: PointId, y: PointId) -> Fraction:
        self._check_point(x)
        self._check_point(y)
        if self._matrix is not None:
            return self._matrix[x][y]
        return Fraction(self._search((x,), targets=(y,))[y], self._scale)

    def _row_ints(self, x: PointId) -> list:
        """[d_int(x, y) for y in 0..n-1]: one untargeted search on graphs, the
        matrix row at scale L on matrices."""
        if self._matrix is None:
            found = self._search((x,))
            return [found[y] for y in range(self.n)]
        L = self._scale
        return [d.numerator * (L // d.denominator) for d in self._matrix[x]]

    def nearest(self, sources) -> list:
        """The owning source of every point: owner[y] minimizes (d(y, s), s)
        over the nonempty sources, so ties go to the smallest source id. On
        graphs one int Dijkstra from all sources whose heap is keyed by
        (d_int, source, point); on matrices a scan of each row."""
        sources = sorted(set(sources))
        for s in sources:
            self._check_point(s)
        if not sources:
            raise ValueError("nearest needs at least one source")
        if self._matrix is not None:
            return [min(sources, key=lambda s: (row[s], s)) for row in self._matrix]
        nbrs, wts = self._nbrs, self._wts
        owner = [None] * self.n
        best = {s: (0, s) for s in sources}
        heap = [(0, s, s) for s in sources]  # sorted, so already a heap
        while heap:
            d, s, u = heapq.heappop(heap)
            if owner[u] is not None:
                continue
            owner[u] = s
            for v, w in zip(nbrs[u], _ONES if wts is None else wts[u]):
                key = (d + w, s)
                if v not in best or key < best[v]:
                    best[v] = key
                    heapq.heappush(heap, (*key, v))
        return owner

    def _search(self, sources, limit=None, targets=None) -> dict:
        """Multi-source truncated search over the integer adjacency.

        Returns {point: d_int} for every point with d_int <= limit from the
        sources (every point when limit is None), where d_int = L * distance.
        On unit weights a BFS one node at a time; int Dijkstra otherwise.
        `targets` lets it stop once it has them all: the BFS after the node
        that discovers the last, Dijkstra at the pop that settles the last.
        """
        nbrs, wts = self._nbrs, self._wts
        if limit is None:
            limit = self._bound
        missing = None if targets is None else set(targets)
        if wts is None:
            found = dict.fromkeys(sources, 0)
            queue = list(found)  # read while it grows: a FIFO queue
            if missing is None:
                for u in queue:
                    du = found[u] + 1
                    if du > limit:
                        break
                    for v in nbrs[u]:
                        if v not in found:
                            found[v] = du
                            queue.append(v)
                return found
            missing.difference_update(found)
            for u in queue:
                du = found[u] + 1
                if not missing or du > limit:
                    break
                for v in nbrs[u]:
                    if v not in found:
                        found[v] = du
                        queue.append(v)
                        missing.discard(v)
            return found
        layer = sorted(sources)
        best = dict.fromkeys(layer, 0)
        heap = [(0, s) for s in layer]
        found = {}
        while heap:
            du, u = heapq.heappop(heap)
            if u in found:
                continue
            found[u] = du
            if missing is not None:
                missing.discard(u)
                if not missing:
                    break
            for v, w in zip(nbrs[u], wts[u]):
                dv = du + w
                if dv <= limit and dv < best.get(v, dv + 1):
                    best[v] = dv
                    heapq.heappush(heap, (dv, v))
        return found

    def _ball_ints(self, x: PointId, limit: int) -> dict:
        """{y: d_int(x, y)} over the closed ball d_int(x, y) <= limit."""
        self._check_point(x)
        if self._matrix is not None:
            return {y: d for y, d in enumerate(self._row_ints(x)) if d <= limit}
        return self._search((x,), limit)

    def balls(self, centres, R):
        """The closed balls {y : d(x,y) <= R} for x in centres, one frozenset
        at a time. R is checked once, at the call, so a bad R raises even
        without centres; an unknown centre raises KeyError when its ball is
        reached. On graphs each ball is one truncated search, on matrices
        one row scan."""
        limit = self._limit(R)
        return (frozenset(self._ball_ints(x, limit)) for x in centres)

    def ball(self, x: PointId, R) -> frozenset:
        """Closed ball {y : d(x,y) <= R}: `balls` at one centre, without
        the generator."""
        return frozenset(self._ball_ints(x, self._limit(R)))

    def neighborhood(self, U, R) -> frozenset:
        """Closed R-neighbourhood {y : d(y, U) <= R} of the point set U."""
        U = frozenset(U)
        for x in U:
            self._check_point(x)
        if self._matrix is None:
            return frozenset(self._search(U, self._limit(R)))
        R = check_radius(R)
        return frozenset(y for y in range(self.n) if any(self._matrix[u][y] <= R for u in U))

    def support_radius(self, x: PointId, points) -> Fraction:
        """max d(x, z) over a nonempty point set (KeyError for an unknown z): on
        graphs one search from x that stops once it has reached all of them."""
        self._check_point(x)
        if self._matrix is not None:
            for z in points:
                self._check_point(z)
            return max(self._matrix[x][z] for z in points)
        found = self._search((x,), targets=points)
        return Fraction(max(found[z] for z in points), self._scale)

    def _frontier_ints(self) -> list:
        """Per-point d_int to the (nonempty) frontier; None if unreachable."""
        if self._frontier_int is None:
            if self._matrix is None:
                found = self._search(self.frontier)
                self._frontier_int = [found.get(x) for x in range(self.n)]
            else:
                self._frontier_int = [int(min(row[f] for f in self.frontier) * self._scale)
                                      for row in self._matrix]
        return self._frontier_int

    def frontier_distances(self) -> list:
        """Per-point exact distance to the frontier; None if frontier empty."""
        if not self.frontier:
            return [None] * self.n
        if self._frontier_dist is None:
            self._frontier_dist = [d if d is None else Fraction(d, self._scale)
                                   for d in self._frontier_ints()]
        return self._frontier_dist

    def interior_points(self, R) -> list[PointId]:
        """Points at distance > R from every frontier point (all, if none)."""
        limit = self._limit(R)
        if not self.frontier:
            return list(range(self.n))
        return [x for x, d in enumerate(self._frontier_ints()) if d > limit]

    def __repr__(self):
        return f"WindowSpace(n={self.n}, label={self.label!r})"


# -- growth profile --------------------------------------------------------


class GrowthProfile:
    """Max ball cardinalities per radius, measured over interior points only.

    Interior means "further than R from the frontier", so the window
    reports the ball bound of the infinite model it truncates. A radius
    with no interior points maps to None.
    """

    def __init__(self, values: dict):
        self.values = dict(values)

    def __getitem__(self, R):
        return self.values[Fraction(R)]

    def to_json(self):
        return to_doc(dict(sorted(self.values.items())))


def growth_profile(space: WindowSpace, radii) -> GrowthProfile:
    values = {}
    for R in radii:
        R = check_radius(R)
        interior = space.interior_points(R)
        if not interior:
            values[R] = None
            continue
        values[R] = max(map(len, space.balls(interior, R)))
    return GrowthProfile(values)


# -- generators ------------------------------------------------------------


def grid_window(dim: int, low: int, high: int) -> WindowSpace:
    """Integer-grid window [low..high]^dim with the L1 shortest-path metric.

    Frontier = points with some coordinate at low or high (their full
    neighbourhood in the infinite grid is truncated).
    """
    if dim <= 0:
        raise ValueError(f"grid dimension must be positive, got {dim}")
    if high < low:
        raise ValueError(f"empty coordinate range [{low}..{high}]")
    axis = range(low, high + 1)
    coords = list(itertools.product(axis, repeat=dim))
    index = {c: i for i, c in enumerate(coords)}
    n = len(coords)

    adjacency = [[] for _ in range(n)]
    for c, i in index.items():
        for k in range(dim):
            up = list(c)
            up[k] += 1
            j = index.get(tuple(up))
            if j is not None:
                adjacency[i].append((j, 1))
                adjacency[j].append((i, 1))

    frontier = [
        i for c, i in index.items() if any(v == low or v == high for v in c)
    ]

    return WindowSpace(
        n,
        frontier=frontier,
        label=f"grid{dim}d[{low}..{high}]",
        adjacency=adjacency,
        meta={
            "kind": "grid",
            "spec": {"kind": "grid", "dim": dim, "low": low, "high": high},
            "coords": coords,
            "coord_index": index,
        },
    )


def cycle_window(length: int) -> WindowSpace:
    """Cycle of the given length; empty frontier (a bounded, untruncated space)."""
    if length <= 0:
        raise ValueError(f"cycle length must be positive, got {length}")
    n = length
    adjacency = [[] for _ in range(n)]
    if n == 2:
        adjacency[0].append((1, 1))
        adjacency[1].append((0, 1))
    elif n > 2:
        for i in range(n):
            j = (i + 1) % n
            adjacency[i].append((j, 1))
            adjacency[j].append((i, 1))

    return WindowSpace(
        n,
        frontier=(),
        label=f"cycle({length})",
        adjacency=adjacency,
        meta={"kind": "cycle", "spec": {"kind": "cycle", "length": length}},
    )


def _tree_from_child_counts(child_count, depth, label, spec):
    """Rooted tree window built level by level; ids in breadth-first order.

    ``child_count(level)`` gives the number of children of every vertex at
    that level; vertices at ``depth`` are leaves and form the frontier.
    """
    parents = [None]
    depths = [0]
    level = [0]
    for d in range(depth):
        nxt = []
        c = child_count(d)
        for v in level:
            for _ in range(c):
                parents.append(v)
                depths.append(d + 1)
                nxt.append(len(parents) - 1)
        level = nxt
    n = len(parents)
    children = [[] for _ in range(n)]
    adjacency = [[] for _ in range(n)]
    for v in range(1, n):
        p = parents[v]
        children[p].append(v)
        adjacency[p].append((v, 1))
        adjacency[v].append((p, 1))
    frontier = [v for v in range(n) if depths[v] == depth]

    meta = {
        "kind": spec["kind"],
        "spec": spec,
        "parents": parents,
        "depths": depths,
        "children": children,
        "depth": depth,
    }
    return WindowSpace(n, frontier=frontier, label=label, adjacency=adjacency, meta=meta)


def tree_window(branching: int, depth: int) -> WindowSpace:
    """Rooted tree where every interior vertex has exactly `branching` children."""
    if branching <= 0 or depth < 0:
        raise ValueError(f"need branching >= 1 and depth >= 0, got {branching}, {depth}")
    return _tree_from_child_counts(
        lambda d: branching,
        depth,
        f"tree(b={branching},depth={depth})",
        {"kind": "tree", "branching": branching, "depth": depth},
    )


def regular_tree_window(degree: int, depth: int) -> WindowSpace:
    """Window of the infinite degree-regular tree: the root keeps all `degree`
    neighbours, every deeper interior vertex has degree-1 children."""
    if degree < 2 or depth < 0:
        raise ValueError(f"need degree >= 2 and depth >= 0, got {degree}, {depth}")
    return _tree_from_child_counts(
        lambda d: degree if d == 0 else degree - 1,
        depth,
        f"regular_tree(k={degree},depth={depth})",
        {"kind": "regular_tree", "degree": degree, "depth": depth},
    )


def disjoint_union(parts: Sequence[WindowSpace], spacing) -> WindowSpace:
    """Coarse disjoint union with declared inter-part spacing.

    Cross distances follow the convention
        d((i,x),(j,y)) = spacing[max(i,j)] + d_i(x, base_i) + d_j(base_j, y)
    with base_k the lowest-id point of part k. The spacing sequence must be
    positive and nondecreasing; under that constraint the convention is a
    genuine metric (it is the shortest-path metric of the part graphs plus
    one base-to-base edge of weight spacing[max(i,j)] per part pair).
    """
    if not parts:
        raise ValueError("disjoint union of zero parts")
    spacing = [Fraction(s) for s in spacing]
    if len(spacing) != len(parts):
        raise ValueError("need one spacing entry per part")
    if any(s <= 0 for s in spacing):
        raise ValueError("spacing entries must be positive")
    if any(a > b for a, b in zip(spacing, spacing[1:])):
        raise ValueError("spacing must be nondecreasing")

    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.n
    n = total
    part_of = []
    for i, p in enumerate(parts):
        part_of.extend([i] * p.n)

    frontier = [
        offsets[i] + f for i, p in enumerate(parts) for f in sorted(p.frontier)
    ]
    label = "union(" + ", ".join(p.label for p in parts) + ")"
    specs = [p.meta.get("spec") for p in parts]
    meta = {
        "kind": "union",
        "spec": None if None in specs else {
            "kind": "union", "parts": specs, "spacing": [format_rational(s) for s in spacing]},
        "offsets": offsets,
    }
    if all(p._matrix is None for p in parts):
        adjacency = [[] for _ in range(n)]
        for i, p in enumerate(parts):
            off = offsets[i]
            for x in range(p.n):
                adjacency[off + x].extend((off + y, w) for y, w in p._edges(x))
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                w = spacing[j]
                adjacency[offsets[i]].append((offsets[j], w))
                adjacency[offsets[j]].append((offsets[i], w))
        return WindowSpace(n, frontier=frontier, label=label, adjacency=adjacency, meta=meta)

    # matrix fallback for parts without adjacency
    def dist(x, y):
        i, j = part_of[x], part_of[y]
        if i == j:
            return parts[i].dist(x - offsets[i], y - offsets[i])
        return (
            spacing[max(i, j)]
            + parts[i].dist(x - offsets[i], 0)
            + parts[j].dist(y - offsets[j], 0)
        )

    matrix = [[dist(x, y) for y in range(n)] for x in range(n)]
    return WindowSpace(n, frontier=frontier, label=label, matrix=matrix, meta=meta)


def product_with_interval(base: WindowSpace, levels: int) -> WindowSpace:
    """Product of a window with the interval {0..levels-1}, sum metric:
    d((z,i),(z',i')) = d(z,z') + |i-i'|. Point (z,i) gets id z*levels + i."""
    if levels <= 0:
        raise ValueError(f"need at least one level, got {levels}")
    n = base.n * levels

    frontier = [
        z * levels + i for z in sorted(base.frontier) for i in range(levels)
    ]
    label = f"{base.label} x [0..{levels - 1}]"
    base_spec = base.meta.get("spec")
    meta = {
        "kind": "product_interval",
        "spec": None if base_spec is None else {
            "kind": "product", "base": base_spec, "levels": levels},
        "levels": levels,
        "base": base,
    }
    if base._matrix is None:
        adjacency = [[] for _ in range(n)]
        for z in range(base.n):
            edges = base._edges(z)
            for i in range(levels):
                v = z * levels + i
                if i + 1 < levels:
                    adjacency[v].append((v + 1, 1))
                    adjacency[v + 1].append((v, 1))
                for z2, w in edges:
                    adjacency[v].append((z2 * levels + i, w))
        return WindowSpace(n, frontier=frontier, label=label, adjacency=adjacency, meta=meta)

    # matrix fallback for a base without adjacency
    def dist(x, y):
        zx, ix = divmod(x, levels)
        zy, iy = divmod(y, levels)
        return base.dist(zx, zy) + abs(ix - iy)

    matrix = [[dist(x, y) for y in range(n)] for x in range(n)]
    return WindowSpace(n, frontier=frontier, label=label, matrix=matrix, meta=meta)


def generate(spec: dict) -> WindowSpace:
    """Build a window from a generator descriptor (see the file-format docs);
    ConfigError naming the field unless every size field is an int."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("generator spec must be a dict with a 'kind' key")
    kind = spec["kind"]

    def size(key, default=None):
        v = spec[key] if default is None else spec.get(key, default)
        if type(v) is not int:
            raise ConfigError(f"generator spec for {kind!r}: {key} must be an int, got {v!r}")
        return v

    try:
        if kind == "grid":
            return grid_window(size("dim", 1), size("low"), size("high"))
        if kind == "cycle":
            return cycle_window(size("length"))
        if kind == "tree":
            return tree_window(size("branching"), size("depth"))
        if kind == "regular_tree":
            return regular_tree_window(size("degree"), size("depth"))
        if kind == "union":
            parts, spacing = spec["parts"], spec["spacing"]
            if type(parts) is not list or type(spacing) is not list:
                raise ConfigError("generator spec for 'union': parts and spacing must be lists")
            return disjoint_union([generate(s) for s in parts], map(parse_rational, spacing))
        if kind == "product":
            return product_with_interval(generate(spec["base"]), size("levels"))
    except KeyError as e:
        raise ConfigError(f"generator spec for {kind!r} is missing {e}") from e
    except ValueError as e:
        raise ConfigError(str(e)) from e
    raise ConfigError(f"unknown generator kind {kind!r}")


# -- serialization ---------------------------------------------------------


def space_to_json(space: WindowSpace) -> dict:
    if space._matrix is not None:
        metric = {
            "type": "matrix",
            "entries": [
                [format_rational(v) for v in row] for row in space._matrix
            ],
        }
    else:
        edges = []
        for x in range(space.n):
            for y, w in space._edges(x):
                if x < y:
                    edges.append([x, y, format_rational(w)])
        metric = {"type": "graph", "edges": edges}
    doc = {
        "points": space.n,
        "metric": metric,
        "frontier": sorted(space.frontier),
        "label": space.label,
    }
    gen = space.meta.get("spec")
    if gen is not None:
        doc["generator"] = gen
    return doc


def space_from_json(doc: dict) -> WindowSpace:
    """ConfigError naming the field unless the file is an object whose `points`
    is a positive int, `metric` an object with a list of matrix rows or graph
    edges ([x, y, weight] triples), `frontier` a list of int ids, `label` a str."""
    if type(doc) is not dict:
        raise ConfigError(f"a space file must be a JSON object, got a {type(doc).__name__}")
    try:
        n = doc["points"]
        metric = doc["metric"]
        frontier = doc["frontier"]
        label = doc.get("label", "")
    except KeyError as e:
        raise ConfigError(f"space file missing field: {e}") from e
    if type(label) is not str:
        raise ConfigError(f"space file label must be a str, got {label!r}")
    if type(n) is not int or n <= 0:
        raise ConfigError(f"space file points must be a positive int, got {n!r}")
    if type(metric) is not dict:
        raise ConfigError(f"space file metric must be an object, got {metric!r}")
    if type(frontier) is not list:
        raise ConfigError(f"space file frontier must be a list, got {frontier!r}")
    for f in frontier:
        if type(f) is not int:
            raise ConfigError(f"space frontier entry {f!r} is not an int point id")

    gen = doc.get("generator")
    if gen is not None:
        space = generate(gen)
        if space.n != n or space.frontier != frozenset(frontier):
            raise ConfigError(
                "space file is inconsistent: stored points/frontier do not "
                "match its generator descriptor"
            )
        return space

    if metric.get("type") == "matrix":
        rows = metric.get("entries")
        if type(rows) is not list or not all(type(row) is list for row in rows):
            raise ConfigError("space file matrix entries must be a list of rows")
        entries = [[parse_rational(v) for v in row] for row in rows]
        try:
            return WindowSpace(n, frontier=frontier, label=label, matrix=entries)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if metric.get("type") == "graph":
        edges = metric.get("edges")
        if type(edges) is not list:
            raise ConfigError(f"space file graph edges must be a list, got {edges!r}")
        adjacency = [[] for _ in range(n)]
        for edge in edges:
            if type(edge) is not list or len(edge) != 3:
                raise ConfigError(f"graph edge {edge!r} is not an [x, y, weight] triple")
            x, y, w = edge
            if not all(type(p) is int and 0 <= p < n for p in (x, y)):
                raise ConfigError(f"graph edge [{x}, {y}] has an endpoint outside 0..{n - 1}")
            w = parse_rational(w)
            adjacency[x].append((y, w))
            adjacency[y].append((x, w))
        try:
            return WindowSpace(n, frontier=frontier, label=label, adjacency=adjacency)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    raise ConfigError(f"unknown metric type {metric.get('type')!r}")


def save_space(space: WindowSpace, path) -> None:
    dump_json(space_to_json(space), path)


def load_space(path) -> WindowSpace:
    return space_from_json(load_json(path))
