"""Shared helpers: independent brute-force oracles the tests check the
library against, small space builders, and the environment for child
interpreters (CLI and demo runs).

The oracles deliberately avoid the library's own code paths: distances
come from a fresh BFS / Floyd-Warshall pass, multiset counts from
expanded element lists, and set arithmetic from plain Python sets.
"""

from __future__ import annotations

import os
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import folnerflow
from folnerflow import Chain, FamilyParams, IndexedFamily, WindowSpace, boundary
from folnerflow.rips import FlowField
from folnerflow.jsonio import List
from folnerflow.space import _KINDS, GENERATOR, check_radius, space_to_json
from folnerflow.tails import TailCoverReport


# -- child interpreters ----------------------------------------------------------

# The directory that holds the imported package, as an absolute path. A child
# interpreter may run in a temp dir, where a relative PYTHONPATH entry such as
# `src` no longer resolves; putting this first makes the child import the same
# folnerflow as this process, however it was found.
PACKAGE_ROOT = str(Path(folnerflow.__file__).resolve().parent.parent)


def child_env() -> dict:
    """os.environ with PACKAGE_ROOT prepended to PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


# -- independent metric oracles ----------------------------------------------


def bfs_all_pairs(adjacency_sets, n):
    """Unit-weight all-pairs distances as an int numpy matrix (-1 = unreachable)."""
    D = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        D[s, s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adjacency_sets[u]:
                if D[s, v] < 0:
                    D[s, v] = D[s, u] + 1
                    q.append(v)
    return D


def floyd_warshall(n, edges):
    """All-pairs shortest-path distances as Fractions (None = unreachable),
    from an explicit undirected edge list [(x, y, w), ...]."""
    D = [[None] * n for _ in range(n)]
    for x in range(n):
        D[x][x] = Fraction(0)
    for x, y, w in edges:
        w = Fraction(w)
        if D[x][y] is None or w < D[x][y]:
            D[x][y] = D[y][x] = w
    for k in range(n):
        Dk = D[k]
        for Di in D:
            dik = Di[k]
            if dik is None:
                continue
            for j, dkj in enumerate(Dk):
                if dkj is not None and (Di[j] is None or dik + dkj < Di[j]):
                    Di[j] = dik + dkj
    return D


@st.composite
def rational_graphs(draw):
    """Connected graph on 1..9 points: a random tree plus extra (possibly
    parallel) edges, weights p/q with q in 1..6; and a random frontier."""
    n = draw(st.integers(1, 9))
    weight = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight), max_size=2 * n))
    edges += [(x, y, w) for x, y, w in extra if x != y]
    frontier = draw(st.sets(st.integers(0, n - 1)))
    return n, edges, frontier


@st.composite
def unit_graphs(draw):
    """Connected unit-weight graph on 1..40 points: a random tree plus extra
    edges; and a random frontier."""
    n = draw(st.integers(1, 40))
    reach = draw(st.integers(1, n))  # a parent among the last `reach` points: small reach, long paths
    edges = [(draw(st.integers(max(0, v - reach), v - 1)), v, 1) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges += [(x, y, 1) for x, y in extra if x != y]
    frontier = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 4)))
    return n, edges, frontier


@st.composite
def descriptors(draw, depth=2):
    """A generator descriptor drawn from the table of kinds, `space._KINDS`:
    any kind, unions and products nested up to `depth` levels, every size a
    small int with the refused ones (0, -1, an empty grid range) among them,
    an int default sometimes left out, and a union's spacing as many
    rationals as it has parts, nondecreasing and sometimes 0, or one too
    many. Drawn from the forms of the table's rows, so a new kind or field
    is drawn too."""
    nests = lambda form: form is GENERATOR or isinstance(form, List) and form.item is GENERATOR
    kinds = [kind for kind, row in _KINDS.items()  # below `depth`, the kinds that nest none
             if depth or not any(nests(form) for form, _ in row.form.fields.values())]
    kind = draw(st.sampled_from(kinds))
    spec, parts = {"kind": kind}, 0
    for key, (form, default) in _KINDS[kind].form.fields.items():
        if form is GENERATOR:
            spec[key] = draw(descriptors(depth - 1))
        elif nests(form):
            spec[key] = draw(st.lists(descriptors(depth - 1), min_size=1, max_size=3))
            parts = len(spec[key])
        elif isinstance(form, List):
            size = parts + draw(st.sampled_from([0] * 7 + [1]))
            spacing = st.sampled_from(["0"] + ["1/2", "1", "3"] * 3)
            spec[key] = sorted(draw(st.lists(spacing, min_size=size, max_size=size)),
                               key=Fraction)
        elif default is ... or draw(st.booleans()):
            # a size the build takes two times in three, so nested kinds often build
            spec[key] = draw(st.integers(-1, 3) | st.integers(1, 3) | st.integers(1, 3))
    return spec


@st.composite
def mixed_families(draw, space, points):
    """A family on `space` whose chains come from a pool of 1..4 flat and
    weighted chains on `points`: indices that share a pool chain make ratios
    tie, small supports are often disjoint, and epsilon often equals a ratio."""
    flat = st.sets(st.sampled_from(points), min_size=1, max_size=5).map(Chain.from_set)
    weighted = st.dictionaries(st.sampled_from(points), st.integers(1, 4),
                               min_size=1, max_size=5).map(Chain)
    pool = draw(st.lists(st.one_of(flat, weighted), min_size=1, max_size=4))
    indices = draw(st.sets(st.sampled_from(points), min_size=1, max_size=10))
    params = FamilyParams(R=draw(st.sampled_from([1, 2, Fraction(5, 2)])),
                          epsilon=draw(st.one_of(
                              st.sampled_from([Fraction(1, 2), Fraction(2, 3), 1, 2]),
                              st.fractions(Fraction(1, 10), 4, max_denominator=20))),
                          S=len(points))
    return IndexedFamily(space=space, chains={x: draw(st.sampled_from(pool)) for x in indices},
                         params=params)


def graph_space(n, edges, frontier=()) -> WindowSpace:
    """The graph space of an undirected edge list [(x, y, w), ...]."""
    adjacency = [[] for _ in range(n)]
    for x, y, w in edges:
        adjacency[x].append((y, w))
        adjacency[y].append((x, w))
    return WindowSpace(n, frontier=frontier, adjacency=adjacency)


def rebuild_space(space: WindowSpace) -> WindowSpace:
    """`space` rebuilt through the checking public constructor, with the same
    frontier, label and meta: a graph from its adjacency as (id, Fraction)
    pairs, a matrix (`_dense`) from the entries its complete graph holds, as
    Fractions, 0 on the diagonal. The constructor checks every edge or
    entry, recomputes the scale L, the unit flag and the path bound, and
    searches for connectivity, so a trusted build that skips all that must
    come out equal to this rebuild."""
    L, common = space._scale, dict(frontier=space.frontier, label=space.label, meta=space.meta)
    wts = space._wts or [[1] * len(ys) for ys in space._nbrs]
    if space._dense:
        rows = [[Fraction(0)] * space.n for _ in range(space.n)]
        for x, ys, ws in zip(range(space.n), space._nbrs, wts):
            for y, w in zip(ys, ws):
                rows[x][y] = Fraction(w, L)
        return WindowSpace(space.n, matrix=rows, **common)
    return WindowSpace(space.n, adjacency=[[(y, Fraction(w, L)) for y, w in zip(ys, ws)]
                                           for ys, ws in zip(space._nbrs, wts)], **common)


def space_adjacency_sets(space: WindowSpace):
    """Neighbour sets from the public edge list of `space_to_json`, so the
    oracle does not read the representation it checks."""
    metric = space_to_json(space)["metric"]
    assert metric["type"] == "graph", "oracle needs an adjacency-backed space"
    sets = [set() for _ in range(space.n)]
    for x, y, _w in metric["edges"]:
        sets[x].add(y)
        sets[y].add(x)
    return sets, space.n


def dist_matrix(space: WindowSpace) -> np.ndarray:
    """Exact distances via the space API, as numpy int64 (requires an
    integer-valued metric)."""
    D = np.zeros((space.n, space.n), dtype=np.int64)
    for x in range(space.n):
        for y in range(space.n):
            d = space.dist(x, y)
            assert d.denominator == 1
            D[x, y] = d.numerator
    return D


def assert_metric_axioms(D: np.ndarray):
    """Exhaustive triangle/symmetry/positivity check on an int matrix."""
    n = D.shape[0]
    assert (np.diag(D) == 0).all()
    assert (D == D.T).all()
    off = D + np.eye(n, dtype=np.int64)
    assert (off > 0).all()
    for y in range(n):
        via = D[:, y][:, None] + D[y, :][None, :]
        assert (D <= via).all(), f"triangle inequality fails through {y}"


def in_range_pairs(space: WindowSpace, indices, R):
    """Ordered pairs (x, y), x < y, of indices at distance <= R, from one
    R-ball per index: the reference for the library's in-range pair pass."""
    index_set = set(indices)
    xs = sorted(index_set)
    for x, b in zip(xs, space.balls(xs, R)):
        for y in sorted(y for y in b if y > x and y in index_set):
            yield x, y


def growth_by_radius(space: WindowSpace, radii) -> dict:
    """`growth_profile`'s values by its definition, one radius at a time: the
    largest R-ball over `interior_points(R)`, None when that is empty."""
    values = {}
    for R in radii:
        R = check_radius(R)
        interior = space.interior_points(R)
        values[R] = max(map(len, space.balls(interior, R))) if interior else None
    return values


def count_searches(space: WindowSpace, monkeypatch) -> list:
    """Replace `space._search` with a probe that records the positional
    arguments of each call in the returned list and then runs the search."""
    calls = []
    search = space._search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(space, "_search", counted, raising=False)
    return calls


def foelner_search_by_balls(space: WindowSpace, R, epsilon):
    """`foelner_search` as it grew one ball and one neighbourhood per radius
    per centre on every space: the reference for its layer-count search."""
    epsilon = check_radius(epsilon, "epsilon")
    if epsilon == 0:
        raise ValueError("epsilon must be positive")
    interior = frozenset(space.interior_points(R))
    for center in range(space.n):
        if center not in interior:
            continue
        for rho in range(space.n + 1):  # a ball stops growing once it swallows the window
            U = space.ball(center, rho)
            if not U <= interior:
                break
            b = boundary(space, U, R)
            if len(b) <= epsilon * len(U):
                return frozenset(U)
            if len(U) == space.n:
                break
    return None


def verify_tail_cover_by_steps(cover, space: WindowSpace) -> TailCoverReport:
    """`verify_tail_cover` as it measured one `space.dist` per step of every
    tail, in the order of the tails and their steps: the reference for its
    one targeted search per source point."""
    start_violations = []
    distinct_violations = []
    step_violations = []
    frontier_violations = []
    counts = {}
    measured_step = None

    for x in sorted(cover.tails):
        seq = cover.tails[x]
        for t in seq:
            space._check_point(t)
        if not seq or seq[0] != x:
            start_violations.append(x)
        if len(set(seq)) != len(seq):
            distinct_violations.append(x)
        for z in set(seq):
            counts[z] = counts.get(z, 0) + 1
        for j in range(len(seq) - 1):
            d = space.dist(seq[j], seq[j + 1])
            if measured_step is None or d > measured_step:
                measured_step = d
            if d > cover.r:
                step_violations.append((x, j, d))
        if seq and seq[-1] not in space.frontier:
            frontier_violations.append(x)

    # a point of the space with no tail has none that starts at it
    start_violations = sorted(start_violations + [x for x in range(space.n)
                                                  if x not in cover.tails])
    multiplicity_violations = sorted((z, c) for z, c in counts.items() if c > cover.K)
    return TailCoverReport(
        passed=not (start_violations or distinct_violations or step_violations
                    or multiplicity_violations or frontier_violations),
        measured_K=max(counts.values(), default=0),
        measured_step=measured_step,
        start_violations=start_violations,
        distinct_violations=distinct_violations,
        step_violations=step_violations,
        multiplicity_violations=multiplicity_violations,
        frontier_violations=frontier_violations,
    )


# -- multiset / set oracles ----------------------------------------------------


def chain_as_multiset(c: Chain) -> set:
    """Expand a chain to explicit (point, copy-number) elements."""
    return {(x, i) for x, v in c.items() for i in range(v)}


def multiset_sym_diff(a: Chain, b: Chain) -> int:
    total = 0
    for x in set(a) | set(b):
        total += abs(a[x] - b[x])
    return total


def multiset_meet_size(a: Chain, b: Chain) -> int:
    return sum(min(a[x], b[x]) for x in set(a) & set(b))


def set_ratio(A: set, B: set):
    inter = len(A & B)
    if inter == 0:
        return float("inf")
    return Fraction(len(A ^ B), inter)


# -- the chain lattice, pointwise from its definitions ------------------------
# `chains.ratio` sums the meet in one pass; these are its reference, and the
# operations the flatten contraction claims are stated in.


def leq(a: Chain, b: Chain) -> bool:
    """Pointwise a <= b."""
    return all(v <= b[x] for x, v in a.items())


def meet(a: Chain, b: Chain) -> Chain:
    """Pointwise minimum."""
    return Chain({x: min(v, b[x]) for x, v in a.items()})


def join(a: Chain, b: Chain) -> Chain:
    """Pointwise maximum."""
    return Chain({x: max(a[x], b[x]) for x in {*a, *b}})


def setminus(a: Chain, b: Chain) -> Chain:
    """Truncated difference a - (a ^ b), never negative."""
    return Chain({x: v - min(v, b[x]) for x, v in a.items()})


def add(a: Chain, b: Chain) -> Chain:
    return Chain({x: a[x] + b[x] for x in {*a, *b}})


def scale(a: Chain, k: int) -> Chain:
    return Chain({x: k * v for x, v in a.items()})


def l1_distance(a: Chain, b: Chain) -> int:
    """Sum of |a(x) - b(x)| over all points."""
    return sum(abs(a[x] - b[x]) for x in {*a, *b})


# -- random generators ----------------------------------------------------------


def random_chain(rng: random.Random, points, max_norm: int) -> Chain:
    """Random positive chain with l1 norm in [1, max_norm]."""
    norm = rng.randint(1, max_norm)
    w = {}
    for _ in range(norm):
        x = rng.choice(points)
        w[x] = w.get(x, 0) + 1
    return Chain(w)


def random_tree_space(rng: random.Random, n: int, spine: int) -> WindowSpace:
    """Random unit tree on n vertices whose vertex 0 ends a path of length
    `spine` (so mass up to `spine` can always drain without hitting the
    sink); frontier = {0}."""
    assert n >= spine + 1
    parent = [None] * n
    for v in range(1, spine + 1):
        parent[v] = v - 1
    for v in range(spine + 1, n):
        parent[v] = rng.randrange(spine, v)  # attach beyond the spine
    adjacency = [[] for _ in range(n)]
    for v in range(1, n):
        adjacency[v].append((parent[v], Fraction(1)))
        adjacency[parent[v]].append((v, Fraction(1)))
    return WindowSpace(n, frontier=[0], label=f"random-tree({n})", adjacency=adjacency)


def handmade_flow(sigma: dict, sinks, r=1, n=None) -> FlowField:
    """FlowField built directly from a sigma map (for pinned examples)."""
    if n is None:
        n = len(sigma) + len(sinks)
    return FlowField(sigma=dict(sigma), sinks=frozenset(sinks), r=Fraction(r), n=n)


@pytest.fixture
def rng():
    return random.Random(0xF01)
