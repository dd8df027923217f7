"""Finite-window models of discrete bounded-geometry metric spaces.

A window is a finite point set with an exact rational metric plus a
*frontier*: the points whose neighbourhoods were cut off when the
(conceptually infinite) space was truncated to a finite piece. Downstream
code uses frontier membership as the finite surrogate for "direction to
infinity": a neighbourhood-graph component that touches the frontier is
treated as unbounded, one that does not as genuinely bounded.

Every distance and comparison is exact, with no floating point. The
metric is always the shortest-path metric of a graph, kept per point as the
tuple of its neighbour ids and the tuple of their edge weights as ints at a
scale L, the least common multiple of the weight denominators (no weight
tuples when every weight is 1). A distance matrix is kept as its complete
graph: by the triangle inequality each entry is its pair's shortest path.
So distances inside the library are ints d_int = L * d, and balls, set
neighbourhoods, frontier distances, nearest sources, distance rows and
`reach` (the max distance to a point set, with the ball of radius R) all
come from one truncated search: a BFS one node at a time when every weight
is 1, int Dijkstra otherwise. `dist` and `reach` stop at their last target.
A radius R (an int or Fraction >= 0, see `check_radius`) is compared as
d_int <= floor(R * L). `Fraction` appears only at the API and JSON boundary.
Generators, one row of `_KINDS` per kind, build adjacency; only a subspace,
or a window given as matrix rows, is written back as matrix rows. On a
matrix of n points a search reads up to n(n - 1) edges, below the O(n^3)
triangle check its file pays when it loads.

A window remembers its most recent single-centre balls, one per centre,
dropping the oldest first once they hold more distances than its cap: the
number of entries its adjacency stores (2|E|, n(n - 1) on a matrix), and
at least n, its point count.
`ball`, `balls` and `reach` (so a family built from balls and then
verified, or flattened) answer from a remembered ball of their centre that
covers what they ask, without a search; its prefix lists the points a
search would, in the same order, so no result, artifact or report changes.
Targeted searches, set neighbourhoods, growth profiles and scale graphs
search as before.

Point ids are dense integers 0..n-1.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import numbers
from collections import namedtuple
from collections.abc import Iterable, Sequence, Set
from fractions import Fraction
from functools import reduce
from operator import le

from .errors import ConfigError
from .jsonio import (ID, Exact, List, Obj, Rational, Tagged, Tuple, format_rational,
                     load_json, read, to_doc)

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
    metric: the adjacency of a connected graph with positive int or
    Fraction weights, whose shortest-path metric is the space's, kept as
    two parallel tuples per point: `_nbrs[x]`, the neighbour ids of x, and
    `_wts[x]`, the weights of those edges as ints at scale L, where `_wts`
    is None when every weight is 1; or a symmetric n x n matrix of ints or
    Fractions, zero on the diagonal, positive off it and obeying the
    triangle inequality, kept as its complete graph: `_nbrs[x]` lists every
    other id in order and `_wts[x]` is row x at scale L without its
    diagonal entry. `_dense` marks a window given as a matrix, which
    `space_to_json` writes back as rows. With ``_scale=L`` a matrix holds
    int rows at scale L, checked but for the triangle inequality, which its
    callers build in; a graph is trusted: ``adjacency`` holds the
    neighbour-id tuples and ``_wts`` the int weight tuples, taken as they
    stand with no check, so L must be the lcm of the weights' denominators
    and the graph connected; the generators build it so.
    """

    def __init__(
        self,
        n: int,
        *,
        frontier: Iterable[PointId] = (),
        label: str = "",
        matrix: Sequence[Sequence[Fraction]] | None = None,
        adjacency: Sequence[Sequence[tuple[PointId, Fraction]]] | None = None,
        meta: dict | None = None,
        _scale: int | None = None,
        _wts: Sequence[tuple] | None = None,
    ):
        if n <= 0:
            raise ValueError(f"a window needs at least one point, got n={n}")
        if (matrix is None) == (adjacency is None):
            raise ValueError("supply exactly one of matrix= or adjacency=")
        self.n = n
        self.frontier = frozenset(frontier)
        self.label = label
        self.meta = meta or {}
        self._frontier_int = None  # per-point d_int to the frontier (see `_frontier_ints`)
        # x -> (limit, x's ball at limit), oldest first, holding `_held` <= `_cap`
        # distances in all (see `_ball_ints`)
        self._balls, self._held = {}, 0

        bad = [x for x in self.frontier if not (type(x) is int and 0 <= x < n)]
        if bad:
            raise ValueError(f"frontier ids outside 0..{n - 1}: {bad[:5]}")

        self._dense = matrix is not None  # written as matrix rows (see `space_to_json`)
        if matrix is not None:
            checked = _scale is None  # the private path builds metrics by construction
            if checked:  # int rows at scale L, the lcm of the entries' denominators
                kinds = {type(v) for row in matrix for v in row}
                if not kinds <= {int, Fraction}:
                    bad = next(v for row in matrix for v in row if type(v) not in (int, Fraction))
                    raise ValueError(f"matrix entry {bad!r} must be an int or Fraction")
                _scale = math.lcm(*{v.denominator for row in matrix for v in row})
                matrix = [[v.numerator * (_scale // v.denominator) for v in row]
                          for row in matrix]
            self._check_rows(matrix, triangle=checked)
            # the complete graph of the entries: by the triangle inequality
            # each entry is the shortest path between its pair
            ids = list(range(n))  # one int object per id, shared by every edge
            adjacency = [tuple(ids[:x] + ids[x + 1:]) for x in ids]
            _wts = [tuple(row[:x] + row[x + 1:]) for x, row in enumerate(matrix)]
            if _scale == 1 and all(w == 1 for ws in _wts for w in ws):
                _wts = None
        if _scale is not None:
            self._scale, self._nbrs = _scale, tuple(adjacency)
            self._wts = None if _wts is None else tuple(_wts)
        else:
            if len(adjacency) != n:
                raise ValueError("adjacency length != n")
            # distances inside the library are ints at scale L, the least
            # common multiple of the weight denominators: d = d_int / L
            L, all_int, unit = 1, True, True
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
            self._scale = L
            self._nbrs = tuple(tuple([y for y, _ in pairs]) for pairs in adjacency)
            self._wts = None if unit else tuple(
                tuple([w for _, w in pairs]) if all_int else
                tuple([w.numerator * (L // w.denominator) for _, w in pairs])
                for pairs in adjacency
            )
        # bounds every shortest path, as an int at scale L
        self._bound = n if self._wts is None else sum(map(sum, self._wts))
        if _scale is None:
            self._check_connected()
        # the distances the remembered balls may hold: the adjacency entries,
        # and at least n, so a one-point window keeps its own ball
        self._cap = max(n, sum(map(len, self._nbrs)))

    @property
    def unit_weights(self) -> bool:
        """True when every edge weight is 1, as on a matrix whose entries off
        the diagonal are all 1. Read from the metric, so it cannot disagree
        with it."""
        return self._wts is None

    @property
    def graph_neighbors(self) -> tuple:
        """Per point, the tuple of the ids of its graph neighbours (every
        other id on a matrix). On unit weights d(x, y) = 1 exactly for the
        ids y != x of x's tuple."""
        return self._nbrs

    def _check_rows(self, m, triangle):
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
        if not triangle:
            return
        for i, row_i in enumerate(m):
            for k, row_k in enumerate(m):  # row_i <= d(i, k) + row_k entrywise
                if not all(map(le, row_i, map(row_i[k].__add__, row_k))):
                    j = next(j for j, d in enumerate(row_i) if d > row_i[k] + row_k[j])
                    raise ValueError(f"matrix breaks the triangle inequality at ({i},{k},{j}): "
                                     f"dist({i},{j}) > dist({i},{k}) + dist({k},{j})")

    def _check_connected(self):
        reached = len(self._search((0,)))
        if reached != self.n:
            raise ValueError(
                "graph metric requires a connected graph; "
                f"only {reached} of {self.n} points reachable from 0"
            )

    # -- metric queries ----------------------------------------------------

    def _check_point(self, x: PointId):
        if not (type(x) is int and 0 <= x < self.n):
            raise KeyError(f"unknown point id {x!r}")

    def _limit(self, R) -> int:
        """floor(R * L) for a radius R checked by `check_radius`: as every
        d_int is an int, d_int <= R * L iff d_int <= floor(R * L). A Fraction
        with a numerator >= 0 is a valid radius as it stands."""
        if type(R) is not Fraction or R.numerator < 0:
            R = check_radius(R)
        return R.numerator * self._scale // R.denominator

    def dist(self, x: PointId, y: PointId) -> Fraction:
        self._check_point(x)
        self._check_point(y)
        return Fraction(self._search((x,), targets={y})[y], self._scale)

    def nearest(self, sources) -> list:
        """The owning source of every point: owner[y] minimizes (d(y, s), s)
        over the nonempty sources, so ties go to the smallest source id. One
        search from all sources lists the points by nondecreasing distance; a
        source owns itself, and any other y takes the least owner among its
        neighbours v on a shortest path, d(v) + w(v, y) = d(y), which the
        search listed before y: their nearest sources are y's."""
        sources = sorted(set(sources))
        for s in sources:
            self._check_point(s)
        if not sources:
            raise ValueError("nearest needs at least one source")
        nbrs, wts, owner = self._nbrs, self._wts, [None] * self.n
        found = self._search(sources)
        for y, d in found.items():
            owner[y] = y if d == 0 else min(owner[v] for v, w in zip(
                nbrs[y], _ONES if wts is None else wts[y]) if found[v] + w == d)
        return owner

    def _search(self, sources, limit=None, targets=None) -> dict:
        """Multi-source truncated search over the int metric.

        Returns {point: d_int} for every point with d_int <= limit from the
        sources (every point when limit is None), where d_int = L * distance,
        by nondecreasing d_int: on unit weights a BFS one node at a time, int
        Dijkstra otherwise, each in the order it reached them. `targets`, a
        set or dict key view of point ids, lets it stop once it has them
        all, counting the targets still missing: the BFS after the node that
        discovers the last, Dijkstra at the pop that settles the last. Then
        its last entry lies at the farthest target's distance, and it holds
        every point nearer than that (see `reach`); a target it never
        reaches raises KeyError naming it.
        """
        nbrs, wts = self._nbrs, self._wts
        if limit is None:
            limit = self._bound
        if wts is None:
            found = dict.fromkeys(sources, 0)
            queue = list(found)  # read while it grows: a FIFO queue
            if targets is None:
                for u in queue:
                    du = found[u] + 1
                    if du > limit:
                        break
                    for v in nbrs[u]:
                        if v not in found:
                            found[v] = du
                            queue.append(v)
                return found
            left = len(targets) - len(found.keys() & targets)
            for u in queue:
                du = found[u] + 1
                if not left or du > limit:
                    break
                for v in nbrs[u]:
                    if v not in found:
                        found[v] = du
                        queue.append(v)
                        if v in targets:
                            left -= 1
            if left:
                raise KeyError(next(z for z in targets if z not in found))
            return found
        if targets is None:
            targets = ()
        left = len(targets)
        layer = sorted(sources)
        best = dict.fromkeys(layer, 0)
        heap = [(0, s) for s in layer]
        found = {}
        while heap:
            du, u = heapq.heappop(heap)
            if u in found:
                continue
            found[u] = du
            if u in targets:
                left -= 1
                if not left:
                    break
            for v, w in zip(nbrs[u], wts[u]):
                dv = du + w
                if dv <= limit and dv < best.get(v, dv + 1):
                    best[v] = dv
                    heapq.heappush(heap, (dv, v))
        if left:
            raise KeyError(next(z for z in targets if z not in found))
        return found

    def _ball_ints(self, x: PointId, limit: int) -> dict:
        """{y: d_int(x, y)} over the closed ball d_int(x, y) <= limit, in the
        order of `_search`. Callers only read it: the dict may be the one the
        window remembers.

        The window remembers its most recent balls, one per centre, at most
        `_cap` distances in all (its adjacency entries, and at least n): a
        search's ball replaces x's older one, and the oldest
        balls are dropped until the rest fit. A remembered ball of x
        whose limit is at least `limit` answers without a search: its prefix
        up to `limit` is the ball a search would list, in the same order, as
        a search at a larger limit only appends the points beyond `limit`."""
        self._check_point(x)
        kept = self._balls.get(x)
        if kept is not None and kept[0] >= limit:
            ball = kept[1]
            return ball if ball[next(reversed(ball))] <= limit else _prefix(ball, limit)
        ball = self._search((x,), limit)
        if kept is not None:
            self._held -= len(self._balls.pop(x)[1])
        self._held += len(ball)
        while self._held > self._cap:  # the oldest first; ball alone holds <= n <= cap
            self._held -= len(self._balls.pop(next(iter(self._balls)))[1])
        self._balls[x] = (limit, ball)
        return ball

    def balls(self, centres, R):
        """The closed balls {y : d(x,y) <= R} for x in centres, one frozenset
        at a time. R is checked once, at the call, so a bad R raises even
        without centres; an unknown centre raises KeyError when its ball is
        reached. Each ball is one truncated search, or the prefix of a
        remembered ball (see `_ball_ints`)."""
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
        return frozenset(self._search(U, self._limit(R)))

    def reach(self, x: PointId, points, R) -> tuple:
        """(near, radius) for an index x and the support `points` of its
        chain: near lists the ids of x's closed R-ball {y : d(x, y) <= R},
        each once; radius is max d(x, z) over `points`, which is read once
        (a set or dict key view as it stands; ValueError if it is empty,
        KeyError naming an unknown point).

        One search from x stops once it has reached every point of `points`,
        so its last entry lies at the radius `far`, and it holds every y with
        d(x, y) < far at its exact distance: a BFS has discovered every layer
        before the last target's, and Dijkstra has settled every point nearer
        than the last target it settled. So if R < far, near is read from
        that one search; otherwise one R-ball search gives it, as in `ball`.

        A ball of x that the window remembers (see `_ball_ints`) and that
        holds every point of `points` stands in for the search: far is the
        largest of its distances over `points`, and its prefix lists the
        same near points in the same order."""
        near, far = self._reach(x, points, self._limit(R))
        return near, Fraction(far, self._scale)

    def _reach(self, x: PointId, points, limit: int) -> tuple:
        """`reach` at the int limit floor(R * L), with the radius as an int
        at scale L."""
        self._check_point(x)
        targets = points if isinstance(points, Set) else set(points)
        if not targets:
            raise ValueError("the point set must be nonempty")
        kept = self._balls.get(x)
        if kept is not None and targets <= kept[1].keys():  # an unknown id is in no ball
            far = max(map(kept[1].__getitem__, targets))  # the R-ball is kept's prefix if R < far
        else:
            found = self._search((x,), targets=targets)
            far = found[next(reversed(found))]  # it stopped at its farthest target
            if far > limit:
                return list(_prefix(found, limit)), far
        return list(self._ball_ints(x, limit)), far

    def support_radius(self, x: PointId, points) -> Fraction:
        """max d(x, z) over a nonempty point set, read once (KeyError for an
        unknown z): the radius of `reach` at R = 0."""
        return self.reach(x, points, 0)[1]

    def _frontier_ints(self) -> list:
        """Per-point d_int to the nonempty frontier, from one search, kept:
        the graph is connected, so the search reaches every point."""
        if self._frontier_int is None:
            self._frontier_int = list(map(self._search(self.frontier).__getitem__, range(self.n)))
        return self._frontier_int

    def frontier_distances(self) -> list:
        """Per-point exact distance to the frontier, a new list on each call
        with one Fraction per distinct distance; all None if it is empty."""
        if not self.frontier:
            return [None] * self.n
        ints = self._frontier_ints()
        return list(map({d: Fraction(d, self._scale) for d in set(ints)}.__getitem__, ints))

    def interior_points(self, R) -> list[PointId]:
        """Points at distance > R from every frontier point (all, if none)."""
        limit = self._limit(R)
        if not self.frontier:
            return list(range(self.n))
        return [x for x, d in enumerate(self._frontier_ints()) if d > limit]

    def __repr__(self):
        return f"WindowSpace(n={self.n}, label={self.label!r})"


def _prefix(found: dict, limit: int) -> dict:
    """The leading entries of `found`, a search's {point: d_int} in
    nondecreasing d_int, up to `limit`."""
    near = {}
    for y, d in found.items():
        if d > limit:
            break
        near[y] = d
    return near


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
        return self.values[check_radius(R)]

    def to_json(self):
        return to_doc(dict(sorted(self.values.items())))


def growth_profile(space: WindowSpace, radii) -> GrowthProfile:
    """Max |B(x, R)| over the interior points x of each radius R, from one
    search per point of the smallest radius's interior: out to the largest
    radius at which x is still interior, whose nondecreasing distances give
    |B(x, R)| for every smaller R by bisection."""
    limit = {R: space._limit(R) for R in map(check_radius, radii)}
    limits = sorted(set(limit.values()))
    sizes = [0] * len(limits)  # per limit, the largest ball so far; 0 while none
    fd = space._frontier_ints() if space.frontier and limits else None
    for x in range(space.n):
        k = len(limits) if fd is None else bisect.bisect_left(limits, fd[x])
        if k:  # x is interior for limits[:k]
            dists = list(space._search((x,), limits[k - 1]).values())
            for j in range(k):
                sizes[j] = max(sizes[j], bisect.bisect_right(dists, limits[j]))
    best = dict(zip(limits, sizes))
    return GrowthProfile({R: best[d] or None for R, d in limit.items()})


# -- generators ------------------------------------------------------------


def grid_window(dim: int, low: int, high: int) -> WindowSpace:
    """Integer-grid window [low..high]^dim with the L1 shortest-path metric.

    Frontier = points with some coordinate at low or high (their full
    neighbourhood in the infinite grid is truncated).

    Ids run in lexicographic coordinate order, so axis k has stride
    side^(dim-1-k); each point lists its down-neighbours along axes
    0..dim-1, then its up-neighbours, every edge at both ends with weight
    1. The grid is connected (any point steps down to the least corner),
    so the graph goes through the trusted path.
    """
    if dim <= 0:
        raise ValueError(f"grid dimension must be positive, got {dim}")
    if dim > 64:  # past 2^64 points at side >= 2; a side-1 grid still builds dim-long tuples
        raise ValueError(f"grid dim must be at most 64, got {dim}")
    if high < low:
        raise ValueError(f"empty coordinate range [{low}..{high}]")
    side = high - low + 1
    coords = list(itertools.product(range(low, high + 1), repeat=dim))
    ids = list(range(len(coords)))  # one int object per id, shared by every edge
    index = dict(zip(coords, ids))
    nbrs = [()] * len(ids)
    for up in (0, 1):  # each axis k, of stride s, cuts the ids into blocks of side * s
        for s in [side ** k for k in reversed(range(dim))]:
            shift, ends = [], [()] * s  # per id, its neighbour a step down (up) the axis
            for b in range(0, len(ids), side * s):
                line = zip(ids[b + s * up:b + s * (side - 1 + up)])
                shift += itertools.chain(line, ends) if up else itertools.chain(ends, line)
            nbrs = list(map(tuple.__add__, nbrs, shift))
    # a point misses a neighbour exactly when a coordinate sits at low or high
    frontier = [i for i, ys in zip(ids, nbrs) if len(ys) < 2 * dim]

    return WindowSpace(
        len(ids),
        frontier=frontier,
        label=f"grid{dim}d[{low}..{high}]",
        adjacency=nbrs,
        _scale=1,
        meta={
            "spec": {"kind": "grid", "dim": dim, "low": low, "high": high},
            "coords": coords,
            "coord_index": index,
        },
    )


def cycle_window(length: int) -> WindowSpace:
    """Cycle of the given length; empty frontier (a bounded, untruncated space).

    Point i lists i-1 and i+1 (mod length), point 0 as (1, length-1); a
    cycle of one point has no edge, one of two a single edge. Stepping up
    from 0 reaches every point, so the graph goes through the trusted path."""
    if length <= 0:
        raise ValueError(f"cycle length must be positive, got {length}")
    ids = list(range(length))  # one int object per id, shared by every edge
    nbrs = [tuple(ids[1 - i:2 - i]) for i in ids] if length <= 2 else [
        (ids[1], ids[-1]), *((ids[i - 1], ids[i + 1 - length]) for i in ids[1:])]
    return WindowSpace(
        length,
        frontier=(),
        label=f"cycle({length})",
        adjacency=nbrs,
        _scale=1,
        meta={"spec": {"kind": "cycle", "length": length}},
    )


def _tree_from_child_counts(child_count, depth, label, spec):
    """Rooted tree window built level by level; ids in breadth-first order.

    ``child_count(level)`` gives the number of children of every vertex at
    that level; vertices at ``depth`` are leaves and form the frontier.
    Each vertex lists its parent, then its children, every edge at both
    ends with weight 1; every vertex has a path to the root, so the graph
    goes through the trusted path.
    """
    parents, depths, ids = [None], [0], [0]  # one int object per id in ids
    level = ids
    for d in range(depth):
        parents += [v for v in level for _ in range(child_count(d))]
        level = list(range(len(ids), len(parents)))
        ids += level
        depths += [d + 1] * len(level)
    children = [[] for _ in ids]
    for v, p in zip(ids[1:], parents[1:]):
        children[p].append(v)
    nbrs = [tuple(kids) if p is None else (p, *kids) for p, kids in zip(parents, children)]
    n, frontier = len(ids), level

    meta = {
        "spec": spec,
        "parents": parents,
        "depths": depths,
        "children": children,
        "depth": depth,
    }
    return WindowSpace(n, frontier=frontier, label=label, adjacency=nbrs, meta=meta, _scale=1)


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
    one base-to-base edge of weight spacing[max(i,j)] per part pair). That
    graph goes through the trusted path: each part's edges (a matrix part's
    complete graph) with its ids shifted and its weights at the common
    scale L, then at each base its edges to the other bases in part order.
    It is connected, as every part is and the bases are joined.
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

    offsets = list(itertools.accumulate([p.n for p in parts], initial=0))
    n = offsets.pop()
    frontier = [off + f for off, p in zip(offsets, parts) for f in sorted(p.frontier)]
    label = "union(" + ", ".join(p.label for p in parts) + ")"
    specs = [p.meta.get("spec") for p in parts]
    meta = {
        "spec": None if None in specs else {
            "kind": "union", "parts": specs, "spacing": [format_rational(s) for s in spacing]},
        "offsets": offsets,
    }
    # the spacing edges are spacing[1:], so L is the lcm of the weights' denominators
    L = math.lcm(*(p._scale for p in parts), *(s.denominator for s in spacing[1:]))
    gaps = [s.numerator * (L // s.denominator) for s in spacing]
    ids = list(range(n))  # one int object per id, shared by every edge
    nbrs, wts = [], []
    for k, p in enumerate(parts):
        own, scale = ids[offsets[k]:offsets[k] + p.n], L // p._scale
        nbrs += [tuple(map(own.__getitem__, ys)) for ys in p._nbrs]
        wts += ([(scale,) * len(ys) for ys in p._nbrs] if p._wts is None
                else [tuple([w * scale for w in ws]) for ws in p._wts])
        others = [j for j in range(len(parts)) if j != k]  # after the base's own edges
        nbrs[offsets[k]] += tuple(ids[offsets[j]] for j in others)
        wts[offsets[k]] += tuple(gaps[max(j, k)] for j in others)
    unit = L == 1 and all(w == 1 for ws in wts for w in ws)
    return WindowSpace(n, frontier=frontier, label=label, adjacency=nbrs, meta=meta,
                       _scale=L, _wts=None if unit else wts)


def product_with_interval(base: WindowSpace, levels: int) -> WindowSpace:
    """Product of a window with the interval {0..levels-1}, sum metric:
    d((z,i),(z',i')) = d(z,z') + |i-i'|. Point (z,i) gets id z*levels + i.

    The product graph goes through the trusted path: (z,i) lists (z,i-1)
    and (z,i+1) with weight 1, then (z',i) for each edge (z, z') of the base
    (a matrix base's complete graph) with its weight. It is connected, as
    the base is and each column {z} x {0..levels-1} is a path."""
    if levels <= 0:
        raise ValueError(f"need at least one level, got {levels}")
    n = base.n * levels

    frontier = [z * levels + i for z in sorted(base.frontier) for i in range(levels)]
    label = f"{base.label} x [0..{levels - 1}]"
    base_spec = base.meta.get("spec")
    meta = {
        "spec": None if base_spec is None else {
            "kind": "product", "base": base_spec, "levels": levels},
        "levels": levels,
        "base": base,
    }
    L = base._scale
    ids = list(range(n))  # one int object per id, shared by every edge
    levels_at = [ids[i::levels] for i in range(levels)]  # levels_at[i][z]: the id of (z, i)
    nbrs = [(*column[max(i - 1, 0):i], *column[i + 1:i + 2], *map(at.__getitem__, ys))
            for ys, column in zip(base._nbrs, zip(*levels_at))
            for i, at in enumerate(levels_at)]
    wts = None if base._wts is None else [
        (L,) * ((i > 0) + (i + 1 < levels)) + ws for ws in base._wts for i in range(levels)]
    return WindowSpace(n, frontier=frontier, label=label, adjacency=nbrs, meta=meta,
                       _scale=L, _wts=wts)


def _powers(first, ratio, terms, cap):  # first * (1 + ratio + ... + ratio^(terms - 1))
    total, term = 0, first
    for _ in range(terms if ratio > 1 else 0):  # O(log cap) rounds
        total, term = total + term, term * ratio
        if total > cap:
            break
    return total if ratio > 1 else first * terms


_Kind = namedtuple("_Kind", "form count build")
_INT = Exact(int)
GENERATOR = Tagged("kind", {})  # a generator descriptor: the form of its kind's row
# Each generator kind: the form of its descriptor, each field an int (with
# its default) or nested descriptors; its point count from the read fields
# and a cap, exact up to the cap where the build succeeds and stopping past
# it in the build's order (parts, then a base, then levels); and its build,
# the one place values are refused.
_KINDS = {
    # side^dim = 1 + (side - 1)(1 + side + ...)
    "grid": _Kind(Obj({"dim": (_INT, 1), "low": _INT, "high": _INT}),
                  lambda dim, low, high, cap: 1 + _powers(high - low, high - low + 1, dim, cap),
                  grid_window),
    "cycle": _Kind(Obj({"length": _INT}), lambda length, cap: length, cycle_window),
    "tree": _Kind(Obj({"branching": _INT, "depth": _INT}),  # b children per vertex
                  lambda branching, depth, cap: _powers(1, branching, depth + 1, cap), tree_window),
    "regular_tree": _Kind(Obj({"degree": _INT, "depth": _INT}),  # b at the root, b - 1 below
                          lambda degree, depth, cap: 1 + _powers(degree, degree - 1, depth, cap),
                          regular_tree_window),
    "union": _Kind(Obj({"parts": List(GENERATOR), "spacing": List(Rational())}),
                   lambda parts, spacing, cap: reduce(
                       lambda total, part: total if total > cap else total + _count(part, cap),
                       parts, 0),
                   lambda parts, spacing: disjoint_union(list(map(_build, parts)), spacing)),
    "product": _Kind(Obj({"base": GENERATOR, "levels": _INT}), lambda base, levels, cap:
                     (points := _count(base, cap)) * (levels if points <= cap else 1),
                     lambda base, levels: product_with_interval(_build(base), levels)),
}
GENERATOR.variants.update((kind, row.form) for kind, row in _KINDS.items())


def _build(spec) -> WindowSpace:
    """The window of a descriptor `GENERATOR` has read; ConfigError for what
    the build refuses."""
    try:
        return _KINDS[spec["kind"]].build(**{k: v for k, v in spec.items() if k != "kind"})
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _count(spec, cap) -> int:
    """The point count of a read descriptor, exact up to `cap` (see `_KINDS`)."""
    return _KINDS[spec["kind"]].count(**{k: v for k, v in spec.items() if k != "kind"}, cap=cap)


def generate(spec: dict) -> WindowSpace:
    """The window of a generator descriptor, read whole by its form before
    anything is built; ConfigError for what the form or the build refuses."""
    return _build(read(spec, GENERATOR, "generator spec"))


# -- serialization ---------------------------------------------------------


def _names(ints, L) -> dict:
    """{d: "p/q" of d / L} for each distinct int d of `ints`."""
    return {d: format_rational(Fraction(d, L)) for d in set(ints)}


def space_to_json(space: WindowSpace) -> dict:
    """The space file: a matrix's rows, rebuilt from its complete graph with
    0 on the diagonal, or a graph's edges [x, y, weight] with x < y, in
    adjacency order, each distinct int distance formatted once."""
    L, wts = space._scale, space._wts
    if space._dense:  # wts[x] is row x without its diagonal entry
        rows = [[*ws[:x], 0, *ws[x:]] for x, ws in enumerate(
            itertools.repeat((1,) * (space.n - 1), space.n) if wts is None else wts)]
        name = _names(itertools.chain.from_iterable(rows), L).__getitem__
        metric = {"type": "matrix", "entries": [list(map(name, row)) for row in rows]}
    else:
        name = _names((1,) if wts is None else itertools.chain.from_iterable(wts), L)
        edges = [[x, y, name[w]]
                 for x, ys, ws in zip(range(space.n), space._nbrs,
                                      itertools.repeat(_ONES) if wts is None else wts)
                 for y, w in zip(ys, ws) if x < y]
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


SPACE = Obj({"points": Exact(int, 1), "frontier": List(ID), "label": (Exact(str), ""),
             "metric": Tagged("type", {
                 "matrix": Obj({"entries": List(List(Rational()))}),
                 "graph": Obj({"edges": List(Tuple(ID, ID, Rational("> 0")))})})})
# a generated file's metric is compared whole with its regenerated file's,
# never read edge by edge
GENERATED_SPACE = Obj({**SPACE.fields, "generator": GENERATOR, "metric": Tagged("type", {
    "matrix": Obj({"entries": Exact(list)}), "graph": Obj({"edges": Exact(list)})})})


def space_from_json(doc: dict) -> WindowSpace:
    """The space of a file its form reads (`SPACE`, or `GENERATED_SPACE` with a
    `generator`); a generated file must be the file of its generator's space."""
    generated = type(doc) is dict and doc.get("generator") is not None
    d = read(doc, GENERATED_SPACE if generated else SPACE, "space file")
    n, metric, graph = d["points"], d["metric"], d["metric"]["type"] == "graph"
    # a matrix holds a row per point, a connected graph at least points - 1
    # edges: checked before any build, this bounds the build by the file's size
    held = metric["edges" if graph else "entries"]
    fits = len(held) >= n - graph
    if generated:
        bad = "points" if _count(d["generator"], n) != n else None if fits else "metric"
        if not bad:
            space = _build(d["generator"])
            made = {**space_to_json(space), "frontier": set(space.frontier)}
            stored = {**doc, "label": d["label"], "frontier": set(d["frontier"])}
            bad = next((key for key in ("points", "label", "metric", "frontier", "generator")
                        if made[key] != stored[key]), None)
        if bad:
            raise ConfigError(f"space file {bad} does not match its generator descriptor")
        return space
    if graph and not fits:  # a matrix that is not n x n is refused by `WindowSpace`
        raise ConfigError(f"space file points {n} need at least {n - 1} graph edges, "
                          f"got {len(held)}")
    adjacency = [[] for _ in range(n)] if graph else None
    for x, y, w in held if graph else ():
        adjacency[x].append((y, w))
        adjacency[y].append((x, w))
    try:
        return WindowSpace(n, frontier=d["frontier"], label=d["label"],
                           matrix=None if graph else held, adjacency=adjacency)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_space(path) -> WindowSpace:
    return space_from_json(load_json(path))
