"""Uniform covers by tails and the tail-transport of weighted families.

A tail cover attaches to every point x a finite escape sequence
t^x_0 = x, t^x_1, t^x_2, ... of pairwise-distinct points with steps of
length <= r, ending on the frontier (where the window truncates it), such
that no point of the space is visited by more than K distinct tails.
A point of the space with no tail in a cover is a start violation (its
tail does not start at it), so a partial cover fails.
Covers model routing mass "to infinity" on spaces with no Folner sets,
where a bounded-multiplicity escape route exists instead.

Transport flips a multiset family's level coordinate into the space:
an element (y, n) of A_x, with levels up to M, lands on t^y_{M-n}. The
cover's multiplicity bound K caps how much transport can shrink a set
(|Z| <= K * |image of Z|), so a family with in-range ratios below
epsilon/K transports to a plain subset family with ratios below epsilon,
supported within M*r + S of its index.

The builder here covers rooted trees whose interior vertices all have at
least two children: each tail walks away from the root, and every vertex
deals its incoming tails round-robin to its children (ordered by id), so
no point ever carries more than two tails.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .errors import BranchingTooLow, ConfigError, TailTooShort
from .jsonio import Doc, Entries, Exact, List, Obj, Rational, format_rational, read
from .space import WindowSpace


class TailCover(namedtuple("TailCover", "tails r K")):
    """Escape sequences per point (`tails` maps PointId -> tuple[PointId,
    ...]) with declared step bound r and multiplicity bound K."""

    __slots__ = ()


class TailCoverReport(namedtuple("TailCoverReport", [
        "passed", "measured_K",
        "measured_step",  # Fraction | None when no tail has two points
        "start_violations",  # [x] with no tail, or with t^x_0 != x
        "distinct_violations",  # [x] with a repeated point
        "step_violations",  # [(x, j, d)] steps longer than r
        "multiplicity_violations",  # [(z, count)] points hit by > K tails
        "frontier_violations"]), Doc):  # [x] whose tail does not end on the frontier
    __slots__ = ()


# a tail's points a step leaves, and those a step reaches
_LEFT, _REACHED = itemgetter(slice(None, -1)), itemgetter(slice(1, None))


def _outside(points: list, n: int) -> bool:
    """False when every entry of `points` is an int id in 0..n-1, read in one
    type, min and max pass; True otherwise, for the caller to name the first."""
    return bool(points) and not (set(map(type, points)) == {int}
                                 and min(points) >= 0 and max(points) < n)


def verify_tail_cover(cover: TailCover, space: WindowSpace) -> TailCoverReport:
    """Exact check of every cover invariant; violations are report entries,
    sorted by point (a point of the space with no tail is a start violation).

    Also measures the smallest K and largest step the cover actually
    attains, so a hand-built cover's declared bounds can be audited. Each
    check is one pass over all the tails. A step to a graph neighbour
    b != a of a unit-weight window has length 1 with no search; the other
    steps are grouped by the point they leave: one search per such point,
    targeted at all the points its steps reach, gives their lengths as ints
    at the space's scale L, each compared with floor(r * L).
    """
    tails, frontier = cover.tails, space.frontier
    order = sorted(tails)
    seqs = [tails[x] for x in order]
    points = list(chain.from_iterable(seqs))
    if _outside(points, space.n):
        for t in points:  # KeyError naming the first bad id
            space._check_point(t)
    # a missing tail starts nowhere
    start_violations = sorted([*(range(space.n) - tails.keys()),
                               *(x for x, seq in zip(order, seqs) if not seq or seq[0] != x)])
    distinct_violations = [x for x, k, seq in zip(order, map(len, map(set, seqs)), seqs)
                           if k != len(seq)]
    frontier_violations = [x for x, seq in zip(order, seqs) if seq and seq[-1] not in frontier]
    counts = Counter(points)  # the tails through each point, once a repeat is taken off
    for x in distinct_violations:
        counts.subtract({z: c - 1 for z, c in Counter(tails[x]).items()})

    pairs = set(zip(*(chain.from_iterable(map(ends, seqs)) for ends in (_LEFT, _REACHED))))
    nbrs = space.graph_neighbors
    steps = dict.fromkeys([(a, b) for a, b in pairs if a != b and b in nbrs[a]]
                          if space.unit_weights else (), 1)  # (a, b) -> d_int(a, b)
    successors = {}  # the points one step after each point, over the other steps
    for a, b in pairs - steps.keys():
        successors.setdefault(a, set()).add(b)
    for a, targets in successors.items():
        found = space._search((a,), targets=targets)
        for b in targets:
            steps[a, b] = found[b]
    L = space._scale
    longest = max(steps.values(), default=None)
    step_violations = []
    if steps:
        # d_int > limit iff d > r; a negative r, which `_limit` refuses, passes no step
        limit = space._limit(cover.r) if cover.r >= 0 else -1
        if longest > limit:
            for x, seq in zip(order, seqs):
                for j, ab in enumerate(zip(seq, seq[1:])):
                    if steps[ab] > limit:
                        step_violations.append((x, j, Fraction(steps[ab], L)))

    multiplicity_violations = sorted((z, c) for z, c in counts.items() if c > cover.K)
    return TailCoverReport(
        passed=not (start_violations or distinct_violations or step_violations
                    or multiplicity_violations or frontier_violations),
        measured_K=max(counts.values(), default=0),
        measured_step=None if longest is None else Fraction(longest, L),
        start_violations=start_violations,
        distinct_violations=distinct_violations,
        step_violations=step_violations,
        multiplicity_violations=multiplicity_violations,
        frontier_violations=frontier_violations,
    )


def build_tree_tails(space: WindowSpace) -> TailCover:
    """Greedy outward tail routing on a generated tree window.

    Every tail moves away from the root; at each vertex the tails present
    (its own plus those dealt to it from above) are distributed
    round-robin over the children in id order. With at least two children
    at every interior vertex the per-point load never exceeds two, which
    the returned cover records as its K.

    Reads the children a tree generator records in `space.meta` (ValueError
    without them). Raises BranchingTooLow on an interior vertex with fewer
    than two children, and rejects leaves off the frontier (tails must end
    where the window was truncated).
    """
    children = space.meta.get("children")
    if children is None:
        raise ValueError("space carries no rooted-tree structure; "
                         "build_tree_tails needs a generated tree window")
    for v in range(space.n):
        if children[v] and len(children[v]) < 2:
            raise BranchingTooLow(v, len(children[v]))
        if not children[v] and v not in space.frontier:
            raise ValueError(f"leaf {v} is not on the frontier; tails cannot escape there")

    paths = {x: [x] for x in range(space.n)}
    arrivals = {v: [] for v in range(space.n)}
    # tree ids are breadth-first, so every vertex is dealt to before it deals
    for v in range(space.n):
        present = sorted(arrivals[v] + [v])
        kids = children[v]
        if not kids:
            continue
        for i, origin in enumerate(present):
            child = kids[i % len(kids)]
            paths[origin].append(child)
            arrivals[child].append(origin)

    tails = {x: tuple(p) for x, p in paths.items()}
    # the tails through z are its own and the ones dealt to it
    return TailCover(tails=tails, r=Fraction(1), K=1 + max(map(len, arrivals.values())))


def transport_set(cover: TailCover, elems, M: int, index=None) -> frozenset:
    """Image of a set of (point, level) pairs under transport: the element
    (y, n) of a height-M multiset lands on t^y_{M-n}."""
    image = set()
    for y, n in elems:
        seq = cover.tails.get(y)
        if seq is None:
            raise ValueError(f"cover has no tail for point {y}")
        j = M - n
        if j >= len(seq):
            raise TailTooShort(index=index, tail_of=y, position=j, available=len(seq))
        image.add(seq[j])
    return frozenset(image)


def tail_transport(fam, cover: TailCover, space: WindowSpace):
    """Transport a multiset family (a `chains.MultisetFamily`) into a plain
    subset family (a `chains.IndexedFamily`).

    Output parameters: unchanged R, epsilon scaled by the cover's K (the
    multiplicity bound is exactly what the ratio can lose), and support
    radius M*r + S (each transported point walks at most M steps of
    length <= r from a point within S of the index).

    Raises TailTooShort when a needed tail position was truncated away by
    the window; windows too small for the requested height must be
    visible, never padded over.
    """
    from .chains import Chain, FamilyParams, IndexedFamily
    M = fam.M
    chains = {}
    for x in sorted(fam.sets):
        chains[x] = Chain.from_set(transport_set(cover, fam.sets[x], M, index=x))
    params = FamilyParams(
        R=fam.params.R,
        epsilon=fam.params.epsilon * cover.K,
        S=M * cover.r + fam.params.S,
        M=0,
    )
    return IndexedFamily(space=space, chains=chains, params=params)


# -- serialization ---------------------------------------------------------


def cover_to_json(cover: TailCover) -> dict:
    return {
        "r": format_rational(cover.r),
        "K": cover.K,
        "tails": [[x, list(cover.tails[x])] for x in sorted(cover.tails)],
    }


COVER = Obj({"r": Rational(">= 0"), "K": Exact(int, 1),
             "tails": Entries(Exact(int), List(Exact(int)))})


def cover_from_json(doc) -> TailCover:
    """The cover of a file its form `COVER` reads (see `check_cover_on_space`)."""
    d = read(doc, COVER, "tail cover")
    return TailCover(tails=dict(zip(d["tails"], map(tuple, d["tails"].values()))),
                     r=d["r"], K=d["K"])


def check_cover_on_space(cover: TailCover, space: WindowSpace) -> None:
    """ConfigError naming the first misfit unless every point of every tail
    is an id of the space and `verify_tail_cover` passes: every tail starts
    at its point, repeats none, steps at most r and ends on the frontier,
    and no point lies on more than K tails."""
    if _outside([*cover.tails, *chain.from_iterable(cover.tails.values())], space.n):
        for x, seq in cover.tails.items():
            for t in (x, *seq):
                if not 0 <= t < space.n:
                    raise ConfigError(f"the tail of point {x} has point {t}, "
                                      f"outside the space's 0..{space.n - 1}")
    report = verify_tail_cover(cover, space)
    if report.start_violations:
        x = report.start_violations[0]
        raise ConfigError(f"the tail of point {x} does not start there" if x in cover.tails
                          else f"cover has no tail for point {x}")
    if report.distinct_violations:
        raise ConfigError(f"the tail of point {report.distinct_violations[0]} repeats a point")
    if report.step_violations:
        x, j, d = report.step_violations[0]
        raise ConfigError(f"step {j} of the tail of point {x} has length "
                          f"{format_rational(d)}, more than r = {format_rational(cover.r)}")
    if report.multiplicity_violations:
        z, c = report.multiplicity_violations[0]
        raise ConfigError(f"point {z} lies on {c} tails, more than K = {cover.K}")
    if report.frontier_violations:
        raise ConfigError(f"the tail of point {report.frontier_violations[0]} "
                          "does not end on the frontier")
