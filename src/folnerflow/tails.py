"""Uniform covers by tails and the tail-transport of weighted families.

A tail cover attaches to every point x a finite escape sequence
t^x_0 = x, t^x_1, t^x_2, ... of pairwise-distinct points with steps of
length <= r, ending on the frontier (where the window truncates it), such
that no point of the space is visited by more than K distinct tails.
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

from dataclasses import dataclass
from fractions import Fraction

from .chains import Chain, FamilyParams, IndexedFamily, MultisetFamily
from .errors import BranchingTooLow, ConfigError, TailTooShort
from .jsonio import Doc, format_rational, parse_rational
from .space import PointId, WindowSpace


@dataclass(frozen=True)
class TailCover:
    """Escape sequences per point with declared step bound r and
    multiplicity bound K."""

    tails: dict  # PointId -> tuple[PointId, ...]
    r: Fraction
    K: int


@dataclass
class TailCoverReport(Doc):
    passed: bool
    measured_K: int
    measured_step: object  # Fraction | None when no tail has two points
    start_violations: list  # [x] with t^x_0 != x
    distinct_violations: list  # [x] with a repeated point
    step_violations: list  # [(x, j, d)] steps longer than r
    multiplicity_violations: list  # [(z, count)] points hit by > K tails
    frontier_violations: list  # [x] whose tail does not end on the frontier


def verify_tail_cover(cover: TailCover, space: WindowSpace) -> TailCoverReport:
    """Exact check of every cover invariant; violations are report entries.

    Also measures the smallest K and largest step the cover actually
    attains, so a hand-built cover's declared bounds can be audited.
    """
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

    measured_K = max(counts.values(), default=0)
    multiplicity_violations = sorted(
        (z, c) for z, c in counts.items() if c > cover.K
    )
    return TailCoverReport(
        passed=not (
            start_violations or distinct_violations or step_violations
            or multiplicity_violations or frontier_violations
        ),
        measured_K=measured_K,
        measured_step=measured_step,
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


def transport_point(cover: TailCover, y: PointId, n: int, M: int, index=None) -> PointId:
    """Where the element (y, n) of a height-M multiset lands: t^y_{M-n}."""
    seq = cover.tails.get(y)
    if seq is None:
        raise ValueError(f"cover has no tail for point {y}")
    j = M - n
    if j >= len(seq):
        raise TailTooShort(index=index, tail_of=y, position=j, available=len(seq))
    return seq[j]


def transport_set(cover: TailCover, elems, M: int, index=None) -> frozenset:
    """Image of a set of (point, level) pairs under transport."""
    return frozenset(transport_point(cover, y, n, M, index) for y, n in elems)


def tail_transport(fam: MultisetFamily, cover: TailCover, space: WindowSpace) -> IndexedFamily:
    """Transport a multiset family into a plain subset family.

    Output parameters: unchanged R, epsilon scaled by the cover's K (the
    multiplicity bound is exactly what the ratio can lose), and support
    radius M*r + S (each transported point walks at most M steps of
    length <= r from a point within S of the index).

    Raises TailTooShort when a needed tail position was truncated away by
    the window; windows too small for the requested height must be
    visible, never padded over.
    """
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


def cover_from_json(doc) -> TailCover:
    """ConfigError naming the point unless every tail is a list of int ids
    under an int point listed once, and K is a positive int."""
    try:
        tails = {}
        for x, seq in doc["tails"]:
            if type(x) is not int:
                raise ConfigError(f"tail cover point {x!r} is not an int id")
            if x in tails:
                raise ConfigError(f"tail cover lists point {x} twice")
            if type(seq) is not list or any(type(t) is not int for t in seq):
                raise ConfigError(f"the tail of point {x} is not a list of int ids: {seq!r}")
            tails[x] = tuple(seq)
        cover = TailCover(tails=tails, r=parse_rational(doc["r"]), K=doc["K"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad tail cover file: {e}") from e
    if type(cover.K) is not int or cover.K <= 0:
        raise ConfigError(f"tail cover K must be a positive int, got {cover.K!r}")
    return cover


def check_cover_on_space(cover: TailCover, space: WindowSpace) -> None:
    """ConfigError naming the first misfit unless every point of every tail
    is an id of the space and `verify_tail_cover` passes: every tail starts
    at its point, repeats none, steps at most r and ends on the frontier,
    and no point lies on more than K tails."""
    for x, seq in cover.tails.items():
        for t in (x, *seq):
            if not 0 <= t < space.n:
                raise ConfigError(f"the tail of point {x} has point {t}, "
                                  f"outside the space's 0..{space.n - 1}")
    report = verify_tail_cover(cover, space)
    if report.start_violations:
        raise ConfigError(f"the tail of point {report.start_violations[0]} does not start there")
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
