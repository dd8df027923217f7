"""Sparse positive integer 0-chains and indexed families over a window.

A chain assigns a positive integer weight to finitely many points (a
multiset of points). A family {a_x} attaches one chain to each index
point, together with the parameters (R, epsilon, S, M) it claims to
satisfy:

  * for indices x, y at distance <= R, the symmetric-difference-to-
    intersection ratio ||a_x - a_y||_1 / ||a_x ^ a_y||_1 is < epsilon;
  * every chain is supported within distance S of its index;
  * weights count multiset levels 0..M (M = 0 means a plain set family).

All ratio comparisons are exact. A pair's int terms (||a - b||_1, ||a ^ b||_1)
sum the meet over the smaller support (for flat chains: the size of the support
intersection) and use ||a - b||_1 = ||a||_1 + ||b||_1 - 2 ||a ^ b||_1, as |u - v|
= u + v - 2 min(u, v) for u, v >= 0. Passes compare int terms by cross-multiplying;
a meet of 0 is the INFINITE_RATIO that fails every epsilon test. `ratio` (the
terms as one Fraction) is the passes' reference, and the pointwise lattice
(meet, join, truncated difference) in the tests is the reference for `ratio`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .errors import ConfigError
from .jsonio import Doc, load_json, parse_rational
from .space import WindowSpace, check_radius

#: distinguished ratio for pairs with empty intersection; fails every
#: epsilon comparison exactly (inf < eps is false for all finite eps).
INFINITE_RATIO = math.inf


class Chain(Mapping):
    """Immutable sparse map point -> positive integer; absent means 0."""

    __slots__ = ("_w", "_l1")

    def __init__(self, weights=None):
        w = {}
        if weights:
            for x, v in dict(weights).items():
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"chain weight at {x} must be an int, got {v!r}")
                if v < 0:
                    raise ValueError(f"chain weight at {x} is negative: {v}")
                if v > 0:
                    w[x] = v
        self._w = w
        self._l1 = sum(w.values())

    @classmethod
    def _trusted(cls, w: dict) -> "Chain":
        """Wrap a dict of positive ints built by this library, unchecked."""
        c = cls.__new__(cls)
        c._w = w
        c._l1 = sum(w.values())
        return c

    @classmethod
    def from_set(cls, points) -> "Chain":
        """Characteristic chain (0,1-valued) of a point set."""
        return cls._trusted(dict.fromkeys(points, 1))

    # Mapping interface: iteration runs over the support only, but lookup
    # of any point returns its weight, defaulting to 0.
    def __getitem__(self, x) -> int:
        return self._w.get(x, 0)

    def __iter__(self):
        return iter(self._w)

    def __len__(self):
        return len(self._w)

    def __contains__(self, x):
        return x in self._w

    # direct views: the Mapping defaults call __getitem__ once per point
    def keys(self):
        return self._w.keys()

    def values(self):
        return self._w.values()

    def items(self):
        return self._w.items()

    def __eq__(self, other):
        if isinstance(other, Chain):
            return self._w == other._w
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._w.items()))

    def __bool__(self):
        return bool(self._w)

    def __repr__(self):
        inner = ", ".join(f"{x}: {v}" for x, v in sorted(self._w.items()))
        return "Chain({" + inner + "})"

    def l1(self) -> int:
        return self._l1

    def support(self) -> frozenset:
        return frozenset(self._w)

    def is_flat(self) -> bool:
        """True when 0,1-valued: positive int weights sum to their count iff all are 1."""
        return self._l1 == len(self._w)


def _terms(a: Chain, b: Chain) -> tuple[int, int]:
    """(||a-b||_1, ||a^b||_1) as ints."""
    if a.is_flat() and b.is_flat():
        meet = len(a._w.keys() & b._w.keys())
    else:
        small, big = (a._w, b._w) if len(a._w) <= len(b._w) else (b._w, a._w)
        meet = 0
        for x, v in small.items():
            u = big.get(x)
            if u is not None:
                meet += v if v < u else u
    return a._l1 + b._l1 - 2 * meet, meet


def _as_ratio(terms):
    """Fraction(diff, meet) of int terms, INFINITE_RATIO for a meet of 0; None stays None."""
    if terms is None:
        return None
    diff, meet = terms
    return Fraction(diff, meet) if meet else INFINITE_RATIO


def ratio(a: Chain, b: Chain):
    """||a-b||_1 / ||a^b||_1 as an exact Fraction; INFINITE_RATIO when the
    meet is empty. For 0,1-valued chains this is |A(+)B| / |A&B|."""
    return _as_ratio(_terms(a, b))


def base_and_towers(a: Chain) -> tuple[Chain, Chain]:
    """Split a = base + towers: base is the 0,1 indicator of the support,
    towers carry the excess mass above height one."""
    base = Chain._trusted(dict.fromkeys(a._w, 1))
    towers = Chain._trusted({x: v - 1 for x, v in a._w.items() if v > 1})
    return base, towers


# -- families ---------------------------------------------------------------


class FamilyParams(namedtuple("FamilyParams", "R epsilon S M"), Doc):
    """Claimed parameters of an indexed family: the Fractions R, epsilon > 0
    and S, and the int M >= 0 (default 0)."""

    __slots__ = ()

    def __new__(cls, R, epsilon, S, M=0):
        R, epsilon, S = check_radius(R, "R"), check_radius(epsilon, "epsilon"), check_radius(S, "S")
        if epsilon == 0:
            raise ValueError("epsilon must be positive")
        if type(M) is not int or M < 0:
            raise ValueError(f"M must be an int >= 0, got {M!r}")
        return super().__new__(cls, R, epsilon, S, M)

    @classmethod
    def from_json(cls, doc):
        try:
            return cls(
                R=parse_rational(doc["R"]),
                epsilon=parse_rational(doc["epsilon"]),
                S=parse_rational(doc["S"]),
                M=doc.get("M", 0),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad family params: {e}") from e


class IndexedFamily(namedtuple("IndexedFamily", "space chains params")):
    """One chain per index point of a window: `chains` maps PointId -> Chain,
    none of them empty, and `params` is the family's FamilyParams.

    The index set may be a subset of the window (a core), e.g. when
    translates near the window edge would escape. A family whose chains
    are all 0,1-valued represents plain subsets A_x = supp a_x.
    """

    __slots__ = ()

    def __new__(cls, space, chains, params):
        for x, c in chains.items():
            if not c:
                raise ValueError(f"family chain at index {x} is empty")
        return super().__new__(cls, space, chains, params)

    def indices(self) -> list:
        return sorted(self.chains)

    def is_flat(self) -> bool:
        return all(c.is_flat() for c in self.chains.values())


class MultisetFamily(namedtuple("MultisetFamily", "sets M params")):
    """Family of finite subsets of (window) x {0..M}: the weighted input
    normal form, one set of (point, level) pairs per index (`sets` maps
    PointId -> frozenset[(PointId, int)])."""

    __slots__ = ()

    def __new__(cls, sets, M, params):
        if type(M) is not int or M < 0:
            raise ValueError(f"M must be an int >= 0, got {M!r}")
        for x, s in sets.items():
            if not s:
                raise ValueError(f"multiset family entry at {x} is empty")
            for (_, n) in s:
                if not (0 <= n <= M):
                    raise ValueError(f"entry at {x} has level {n} outside 0..{M}")
        return super().__new__(cls, sets, M, params)


def family_from_multisets(space: WindowSpace, sets, params: FamilyParams) -> IndexedFamily:
    """Collapse levels: a_x(z) = number of (z, n) pairs in A_x.

    By construction ||a_x - a_y||_1 <= |A_x (+) A_y| and
    ||a_x ^ a_y||_1 >= |A_x & A_y| (each column of the level diagram
    contributes at least its overlap to the meet and at most its
    symmetric difference to the l1 distance).
    """
    chains = {}
    for x, s in sets.items():
        if not s:
            raise ValueError(f"empty set for index {x}")
        w = {}
        for (z, _n) in s:
            w[z] = w.get(z, 0) + 1
        chains[x] = Chain(w)
    return IndexedFamily(space=space, chains=chains, params=params)


# -- verification ------------------------------------------------------------


class FamilyReport(namedtuple("FamilyReport", [
        "passed", "pair_count",
        "worst_ratio",  # Fraction | INFINITE_RATIO | None if no pairs
        "worst_pair",  # (x, y) | None
        "max_support_radius",  # Fraction
        "ratio_violations",  # [(x, y, ratio)]
        "support_violations",  # [(x, measured_radius)]
        "flat_violations"]), Doc):  # [x]
    """Outcome of checking a family against its claimed parameters; its
    doc names `pair_count` "pairs_checked"."""

    __slots__ = ()

    def to_json(self):
        doc = super().to_json()
        doc["pairs_checked"] = doc.pop("pair_count")
        return doc


def in_range_pairs(space: WindowSpace, indices, R):
    """Ordered pairs (x, y), x < y, of indices at distance <= R."""
    index_set = set(indices)
    xs = sorted(index_set)
    for x, b in zip(xs, space.balls(xs, R)):
        for y in sorted(y for y in b if y > x and y in index_set):
            yield x, y


def verify_family(fam: IndexedFamily, require_flat: bool = False) -> FamilyReport:
    """Exact check of the ratio condition at range R, the support-radius
    bound S, and (optionally) 0,1-valuedness. Violations are report
    entries, never exceptions; iteration order is fixed by point id so the
    report is deterministic."""
    space, params, chains = fam.space, fam.params, fam.chains
    num, den = params.epsilon.numerator, params.epsilon.denominator
    worst = None  # the terms of the first worst pair
    worst_pair = None
    pair_count = 0
    ratio_violations = []
    for x, y in in_range_pairs(space, chains, params.R):
        d, m = _terms(chains[x], chains[y])
        pair_count += 1
        if worst is None or d * worst[1] > worst[0] * m:
            worst, worst_pair = (d, m), (x, y)
        if d * den >= num * m:
            ratio_violations.append((x, y, _as_ratio((d, m))))

    radii = {x: space.support_radius(x, fam.chains[x].keys()) for x in fam.indices()}
    max_radius = max(radii.values(), default=Fraction(0))
    support_violations = [(x, radius) for x, radius in radii.items() if radius > params.S]

    flat_violations = []
    if require_flat:
        flat_violations = [x for x in fam.indices() if not fam.chains[x].is_flat()]

    return FamilyReport(
        passed=not (ratio_violations or support_violations or flat_violations),
        pair_count=pair_count,
        worst_ratio=_as_ratio(worst),
        worst_pair=worst_pair,
        max_support_radius=max_radius,
        ratio_violations=ratio_violations,
        support_violations=support_violations,
        flat_violations=flat_violations,
    )


# -- serialization ----------------------------------------------------------


def chain_to_json(c: Chain) -> dict:
    return {"weights": sorted([x, v] for x, v in c.items())}


def chain_from_json(doc) -> Chain:
    try:
        return Chain({x: v for x, v in doc["weights"]})
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad chain: {e}") from e


def _by_index(entries, parse) -> dict:
    """{x: parse(value)} from [x, value] entries; ConfigError naming an index listed twice."""
    out = {}
    for x, value in entries:
        if x in out:
            raise ConfigError(f"the family lists index {x!r} twice")
        out[x] = parse(value)
    return out


def family_to_json(fam: IndexedFamily) -> dict:
    return {
        "params": fam.params.to_json(),
        "chains": [[x, chain_to_json(fam.chains[x])] for x in fam.indices()],
    }


def family_from_json(doc, space: WindowSpace) -> IndexedFamily:
    """ConfigError naming a repeated index, or the first index or chain point not in the space."""
    try:
        params = FamilyParams.from_json(doc["params"])
        chains = _by_index(doc["chains"], chain_from_json)
    except (KeyError, TypeError) as e:
        raise ConfigError(f"bad family file: {e}") from e
    n = space.n
    for x, c in chains.items():
        if type(x) is not int or not 0 <= x < n:
            raise ConfigError(f"family index {x!r} is not a point id in 0..{n - 1}")
        for z in c:
            if type(z) is not int or not 0 <= z < n:
                raise ConfigError(f"the chain at index {x} has point {z!r}, "
                                  f"outside the space's 0..{n - 1}")
    try:
        return IndexedFamily(space=space, chains=chains, params=params)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def multiset_family_to_json(fam: MultisetFamily) -> dict:
    return {
        "params": fam.params.to_json(),
        "M": fam.M,
        "sets": [
            [x, sorted([z, n] for z, n in fam.sets[x])]
            for x in sorted(fam.sets)
        ],
    }


def multiset_family_from_json(doc) -> MultisetFamily:
    try:
        params = FamilyParams.from_json(doc["params"])
        M = doc["M"]
        sets = _by_index(doc["sets"], lambda pairs: frozenset((z, n) for z, n in pairs))
        return MultisetFamily(sets=sets, M=M, params=params)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad multiset family file: {e}") from e


def load_family(path, space: WindowSpace = None):
    """Load an indexed family (needs the space) or a multiset family
    (dispatches on whether the file stores "chains" or "sets")."""
    doc = load_json(path)
    if "sets" in doc:
        return multiset_family_from_json(doc)
    if space is None:
        raise ConfigError("loading an indexed family requires its window space")
    return family_from_json(doc, space)
