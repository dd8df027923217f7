"""Ready-made family generators: deterministic shapes for pipelines and
seeded random families for verification harnesses.

Deterministic generators never touch a RNG; the random ones take an
explicit random.Random so a fixed seed reproduces every artifact byte for
byte.
"""

from __future__ import annotations

from fractions import Fraction

from .chains import Chain, FamilyParams, IndexedFamily, MultisetFamily
from .space import WindowSpace


def tent_family(space: WindowSpace, width: int, R, epsilon, core=None) -> IndexedFamily:
    """Peaked weighted family a_x(z) = max(0, width - d(x,z)).

    Mass `width` at the index, sloping to zero at distance `width`; the
    standard example of a family that satisfies the ratio condition with
    weights but is far from 0,1-valued. Needs integer distances.
    """
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise ValueError(f"width must be an int >= 1, got {width!r}")
    indices = range(space.n) if core is None else core
    L = space._scale
    limit = space._limit(width - 1)
    chains = {}
    for x in indices:
        w = {}
        for z, d_int in space._ball_ints(x, limit).items():
            d, rest = divmod(d_int, L)
            if rest:
                raise ValueError("this family shape needs integer distances")
            w[z] = width - d
        chains[x] = Chain._trusted(w)
    params = FamilyParams(R=R, epsilon=epsilon, S=width - 1, M=width - 1)
    return IndexedFamily(space=space, chains=chains, params=params)


def ball_family(space: WindowSpace, radius, R, epsilon, core=None) -> IndexedFamily:
    """Plain subset family A_x = B(x, radius)."""
    indices = list(range(space.n) if core is None else core)
    chains = {x: Chain.from_set(b) for x, b in zip(indices, space.balls(indices, radius))}
    params = FamilyParams(R=R, epsilon=epsilon, S=Fraction(radius), M=0)
    return IndexedFamily(space=space, chains=chains, params=params)


def singleton_family(space: WindowSpace, R, epsilon, core=None) -> IndexedFamily:
    """A_x = {x}: the degenerate family whose in-range pairs are disjoint."""
    indices = range(space.n) if core is None else core
    chains = {x: Chain.from_set([x]) for x in indices}
    params = FamilyParams(R=R, epsilon=epsilon, S=Fraction(0), M=0)
    return IndexedFamily(space=space, chains=chains, params=params)


def random_multiset_family(
    space: WindowSpace,
    rng,
    *,
    M: int,
    size: int,
    spread,
    R,
    epsilon,
    core=None,
) -> MultisetFamily:
    """Seeded random family of subsets of (window) x {0..M}.

    Each index draws `size` distinct (point, level) pairs with points
    inside its spread-ball. No ratio condition is promised; this shape
    exists to exercise verifiers and the counting inequalities.
    """
    indices = list(range(space.n) if core is None else core)
    sets = {}
    for x, ball in zip(indices, space.balls(indices, spread)):
        nearby = sorted(ball)
        pool = [(z, n) for z in nearby for n in range(M + 1)]
        sets[x] = frozenset(rng.sample(pool, min(size, len(pool))))
    params = FamilyParams(R=R, epsilon=epsilon, S=Fraction(spread), M=M)
    return MultisetFamily(sets=sets, M=M, params=params)


def perturbed_cluster_family(
    space: WindowSpace,
    rng,
    *,
    M: int,
    centers,
    cluster_radius,
    core_radius,
    base_size: int,
    R,
    epsilon,
) -> MultisetFamily:
    """Seeded family that provably satisfies a ratio precondition.

    Around each centre, indices inside the core share one random base set
    C of `base_size` elements, each index swapping at most one element in
    and one out. Any two members then differ in at most four elements and
    share at least base_size - 2, so every in-range ratio is at most
    4/(base_size - 2) -- choose base_size so that this is below the
    epsilon you want to guarantee. Centres must be spaced more than
    R + 2*core_radius apart so no in-range pair straddles two clusters.
    """
    if base_size < 5:
        raise ValueError("need base_size >= 5 for a nontrivial guarantee")
    sets = {}
    max_radius = Fraction(0)
    centers = list(centers)
    for c, cluster, core in zip(centers, space.balls(centers, cluster_radius),
                                space.balls(centers, core_radius)):
        nearby = sorted(cluster)
        pool = [(z, n) for z in nearby for n in range(M + 1)]
        if len(pool) < base_size + 2:
            raise ValueError(f"cluster at {c} too small for base_size {base_size}")
        base = set(rng.sample(pool, base_size))
        spare = [p for p in pool if p not in base]
        for x in sorted(core):
            out = rng.choice(sorted(base))
            inn = rng.choice(spare)
            sets[x] = frozenset((base - {out}) | {inn})
            max_radius = max(max_radius, space.support_radius(x, {z for z, _n in sets[x]}))
    params = FamilyParams(R=R, epsilon=epsilon, S=max_radius, M=M)
    return MultisetFamily(sets=sets, M=M, params=params)
