"""Worked constructions: boundaries and Folner witnesses, translate
families on group windows, transfer of families along coarse maps, and
box spaces of cyclic quotients.

Everything here is exact and deterministic. Searches that fail on a
finite window return None rather than claiming a negative: failure to
find a Folner set at one window size proves nothing about the infinite
model. On unit-weight graphs N_k(B(c,rho)) = B(c,rho+k), so a Folner search
reads each centre's candidate balls off the layer sizes of one BFS.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .chains import Chain, FamilyParams, IndexedFamily, _as_ratio, _terms, _worst
from .errors import EmptyImage, InternalInvariantError, TranslateEscapesWindow, WindowTooSmall
from .jsonio import Doc
from .space import (WindowSpace, check_radius, cycle_window, disjoint_union,
                    product_with_interval)

# -- boundaries and Folner sets ---------------------------------------------


def boundary(space: WindowSpace, U, R) -> frozenset:
    """R-boundary: points outside U within distance R of U."""
    U = frozenset(U)
    return space.neighborhood(U, R) - U


def foelner_search(space: WindowSpace, R, epsilon):
    """Greedy ball-growing search for U with |boundary_R(U)| <= epsilon*|U|.

    Candidate sets are balls grown around each centre in id order; a
    witness must be *fully interior*, meaning every point of U is at
    distance > R from the frontier, so the measured boundary is the whole
    boundary of the infinite model. Returns the first witness found, or
    None when the window admits none at this size (which is not evidence
    of non-amenability).

    On a unit-weight graph, with k = floor(R) and integers rho >= 0:
      * N_k(B(c,rho)) = B(c,rho+k): the triangle inequality gives one side;
        a point at distance rho + j, 0 < j <= k, is within j of the point at
        distance rho on a shortest path from c. So the boundary has
        |B(c,rho+k)| - |B(c,rho)| points.
      * B(c,rho) is interior iff d(c,F) > rho + k, F the frontier: then
        d(y,F) >= d(c,F) - rho > k on the ball; else the point at distance
        min(rho, d(c,F)) on a shortest path from c to F is in the ball and
        within k of F.
    So cumulative layer sizes |B(c,j)| of one BFS per centre, grown as far as
    the test needs, answer every rho. Weighted graphs grow balls, as does a
    matrix whose entries are not all 1 (it is searched as its complete graph).
    """
    epsilon = check_radius(epsilon, "epsilon")
    if epsilon == 0:
        raise ValueError("epsilon must be positive")
    interior = space.interior_points(R)
    if space.unit_weights:
        k, nbrs, n = space._limit(R), space.graph_neighbors, space.n
        fd = space._frontier_ints() if space.frontier else None
        num, den = epsilon.numerator, epsilon.denominator
        for c in interior:
            seen, layer, sizes = {c}, [c], [1]  # sizes[j] = |B(c,j)|
            for rho in range(n + 1 if fd is None else fd[c] - k):
                while len(sizes) <= rho + k:  # the next BFS layer (seen.add returns None)
                    layer = [v for u in layer for v in nbrs[u]
                             if v not in seen and not seen.add(v)]
                    sizes.append(len(seen))
                if (sizes[rho + k] - sizes[rho]) * den <= num * sizes[rho]:
                    return space.ball(c, rho)
        return None
    inside = frozenset(interior)
    for center in interior:
        for rho in range(space.n + 1):
            U = space.ball(center, rho)
            if not U <= inside:
                break
            b = boundary(space, U, R)
            if len(b) <= epsilon * len(U):
                return frozenset(U)
    return None


# -- translate families on group windows -------------------------------------


def _grid_coords(space: WindowSpace):
    if "coords" not in space.meta:
        raise ValueError("translate families need a grid window (group structure)")
    return space.meta["coords"], space.meta["coord_index"]


def _as_vector(f, dim):
    if isinstance(f, int):
        f = (f,)
    f = tuple(f)
    if len(f) != dim:
        raise ValueError(f"translate vector {f} has wrong dimension (need {dim})")
    return f


def group_foelner_family(
    space: WindowSpace, F, R, epsilon, core=None
) -> IndexedFamily:
    """Family of translates A_x = x + F on a grid window.

    F is a set of integer vectors (plain ints in dimension one). The index
    core defaults to every x whose translate stays inside the window;
    passing an explicit core that escapes, or having no valid index at
    all, raises TranslateEscapesWindow. S is the largest distance from the
    origin to F.
    """
    coords, index = _grid_coords(space)
    dim = len(coords[0])
    F = [_as_vector(f, dim) for f in F]
    if not F:
        raise ValueError("translate set F is empty")
    S = max(Fraction(sum(abs(v) for v in f)) for f in F)

    def translate(x):
        cx = coords[x]
        pts = []
        for f in F:
            target = tuple(a + b for a, b in zip(cx, f))
            pid = index.get(target)
            if pid is None:
                return None
            pts.append(pid)
        return pts

    chains = {}
    for x in range(space.n) if core is None else core:
        pts = translate(x)
        if pts is not None:
            chains[x] = Chain.from_set(pts)
        elif core is not None:
            raise TranslateEscapesWindow(x)
    if core is None and not chains:
        raise TranslateEscapesWindow(None, "no translate of F fits inside the window")

    params = FamilyParams(R=R, epsilon=epsilon, S=S, M=0)
    return IndexedFamily(space=space, chains=chains, params=params)


# -- transfer along coarse maps ----------------------------------------------


def _eval_table(table, t):
    """Step-function lookup: value at the largest tabulated distance <= t."""
    best = None
    for d, v in table:
        if d <= t:
            best = v
        else:
            break
    if best is None:
        raise ValueError(f"modulus table does not cover distance {t}")
    return best


def check_moduli(X: WindowSpace, f: dict, Y: WindowSpace, rho_minus, rho_plus):
    """Verify rho_-(d(x,x')) <= d(f x, f x') <= rho_+(d(x,x')) on all pairs.

    Tables are sorted (distance, bound) pairs read as step functions.
    Returns the list of violating pairs (empty when the moduli hold).
    """
    rho_minus = sorted((Fraction(d), Fraction(v)) for d, v in rho_minus)
    rho_plus = sorted((Fraction(d), Fraction(v)) for d, v in rho_plus)
    pts = sorted(f)
    for x in pts:
        X._check_point(x)
        Y._check_point(f[x])
    # distances as ints at the scales of X and Y; per distance of X, each
    # table is read once and its bound rounded inward to Y's scale
    Lx, Ly = X._scale, Y._scale
    lows, highs = {}, {}

    def low(d):
        if d not in lows:
            lows[d] = math.ceil(_eval_table(rho_minus, Fraction(d, Lx)) * Ly)
        return lows[d]

    def high(d):
        if d not in highs:
            highs[d] = math.floor(_eval_table(rho_plus, Fraction(d, Lx)) * Ly)
        return highs[d]

    bad = []
    fx = None
    for i, x in enumerate(pts):
        # one search of X per point, one of Y per run of equal images
        row = X._search((x,))
        if f[x] != fx:
            fx = f[x]
            image_row = Y._search((fx,))
        for y in pts[i + 1:]:
            d, dy = row[y], image_row[f[y]]
            if not low(d) <= dy <= high(d):
                bad.append((x, y, Fraction(d, Lx), Fraction(dy, Ly)))
    return bad


def pushforward_injective(
    fam: IndexedFamily, f: dict, target: WindowSpace, target_R=None
) -> IndexedFamily:
    """Push a family along an injective map into a denser target window.

    Every target point y borrows the family member of the domain point
    whose image is nearest to y (ties to the smallest image id), and takes
    its image: B_y = f(A_{x(y)}). The support radius of the result is
    measured exactly rather than estimated.
    """
    if not f:
        raise EmptyImage("the map has no points")
    R = fam.params.R if target_R is None else check_radius(target_R, "target_R")
    values = list(f.values())
    if len(set(values)) != len(values):
        raise ValueError("map is not injective")
    image = {}
    for x in sorted(fam.chains):
        if x not in f:
            raise ValueError(f"map is undefined on family index {x}")
        image[f[x]] = x

    chains = {}
    for y, best in enumerate(target.nearest(image)):
        chains[y] = Chain({f[z]: v for z, v in fam.chains[image[best]].items()})
    max_radius = max(target.support_radius(y, c.keys()) for y, c in chains.items())

    params = FamilyParams(
        R=R,
        epsilon=fam.params.epsilon,
        S=max_radius,
        M=fam.params.M,
    )
    return IndexedFamily(space=target, chains=chains, params=params)


class CoarseMapModel(namedtuple("CoarseMapModel", [
        "X", "Y",
        "f",  # PointId(X) -> PointId(Y)
        "g",  # PointId(Y, image only) -> PointId(X)
        "Z",  # sorted PointIds of X forming g(f(X))
        "S", "M",
        "iota",  # PointId(X) -> (PointId(X) in Z, level)
        "rho_minus", "rho_plus"])):
    """A coarse equivalence f between two windows, normalized for transfer.

    Holds the section g of f (per image point, its smallest preimage),
    the sub-window Z = g(f(X)), the displacement bound S over
    d(x, g(f(x))), the S-ball cardinality bound M, and the injection
    iota: X -> Z x {0..M-1} sending x to (g(f(x)), k) where k numbers the
    points sharing that image in id order. Moduli tables bound the metric
    distortion of f both ways.
    """

    __slots__ = ()

    @classmethod
    def build(cls, X: WindowSpace, Y: WindowSpace, f: dict, rho_minus, rho_plus):
        if set(f) != set(range(X.n)):
            raise ValueError("f must be defined on every point of the domain")
        bad = check_moduli(X, f, Y, rho_minus, rho_plus)
        if bad:
            x, y, d, dy = bad[0]
            raise ValueError(
                f"moduli violated at pair ({x},{y}): d={d}, image distance={dy}"
            )
        g = {}
        for x in sorted(f, reverse=True):  # smallest preimage wins
            g[f[x]] = x
        gf = {x: g[f[x]] for x in range(X.n)}
        Z = sorted(set(gf.values()))
        S = max(X.dist(x, gf[x]) for x in range(X.n))
        M = max(map(len, X.balls(range(X.n), S)))
        buckets = {}
        iota = {}
        for x in range(X.n):  # id order fixes the level assignment
            k = buckets.get(gf[x], 0)
            buckets[gf[x]] = k + 1
            iota[x] = (gf[x], k)
        if any(c > M for c in buckets.values()):  # a bucket lies in its point's S-ball
            raise InternalInvariantError("ball bound M too small for iota")
        return cls(
            X=X, Y=Y, f=dict(f), g=g, Z=Z, S=S, M=M, iota=iota,
            rho_minus=sorted((Fraction(d), Fraction(v)) for d, v in rho_minus),
            rho_plus=sorted((Fraction(d), Fraction(v)) for d, v in rho_plus),
        )

    def product_injection(self):
        """The injection realized into an actual product window: builds
        Z x {0..M-1} (Z re-indexed densely) and returns (product space,
        map X -> product ids, map Z old-id -> new-id)."""
        z_index = {z: i for i, z in enumerate(self.Z)}
        sub = subspace(self.X, self.Z)
        prod = product_with_interval(sub, self.M)
        mapping = {
            x: z_index[z] * self.M + k for x, (z, k) in self.iota.items()
        }
        return prod, mapping, z_index


def subspace(space: WindowSpace, points) -> WindowSpace:
    """Metric restriction to a subset, re-indexed densely in id order."""
    points = sorted(set(points))
    for x in points:
        space._check_point(x)
    rows = [[row[y] for y in points] for row in (space._search((x,)) for x in points)]
    frontier = [i for i, x in enumerate(points) if x in space.frontier]
    return WindowSpace(
        len(points),
        frontier=frontier,
        label=f"{space.label}|{len(points)}pts",
        matrix=rows,
        meta={"points": points},
        _scale=space._scale,
    )


def project_family(product_space: WindowSpace, fam: IndexedFamily) -> IndexedFamily:
    """Collapse a family on Z x {0..M-1} to one on Z.

    The projected member at z keeps the base points whose column meets
    A_(z,0): losing the level coordinate cannot grow the symmetric
    difference, and shrinks the intersection by a factor of at most M, so
    a family with ratios < epsilon/M projects to one with ratios <
    epsilon. Output epsilon is scaled accordingly.
    """
    meta = product_space.meta
    if "levels" not in meta:
        raise ValueError("project_family needs a product-with-interval window")
    M = meta["levels"]
    base = meta["base"]

    chains = {}
    for pid in sorted(fam.chains):
        z, i = divmod(pid, M)
        if i != 0:
            continue
        cols = {w for (w, _lvl) in
                ((divmod(q, M)) for q in fam.chains[pid].support())}
        chains[z] = Chain.from_set(cols)
    if not chains:
        raise ValueError("family has no index at level 0 to project")
    params = FamilyParams(
        R=fam.params.R,
        epsilon=fam.params.epsilon * M,
        S=fam.params.S,
        M=0,
    )
    return IndexedFamily(space=base, chains=chains, params=params)


# -- box spaces ---------------------------------------------------------------


class BoxSpaceModel(namedtuple("BoxSpaceModel", "m boxes spacing space offsets sizes")):
    """Coarse union of the cyclic quotients of the integers by m^j.

    Box j (1-based) is a cycle of length m^j; the quotient map pi_j sends
    an integer g to the global id of (g mod m^j). Spacing between boxes is
    a strictly increasing schedule, so only finitely many box pairs sit
    within any fixed range of each other.
    """

    __slots__ = ()

    def size(self, j: int) -> int:
        return self.sizes[j - 1]

    def box_points(self, j: int) -> range:
        return range(self.offsets[j - 1], self.offsets[j - 1] + self.sizes[j - 1])


def build_box_space(m: int, boxes: int, spacing=None) -> BoxSpaceModel:
    """Assemble the box-space window for quotient sizes m, m^2, ..., m^boxes."""
    for name, v in (("m", m), ("boxes", boxes)):
        if type(v) is not int:
            raise ValueError(f"{name} must be an int, got {v!r}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if boxes < 1:
        raise ValueError(f"need at least one box, got {boxes}")
    sizes = [m ** j for j in range(1, boxes + 1)]
    if spacing is None:
        spacing = [Fraction(s) for s in sizes]
    else:
        spacing = [Fraction(s) for s in spacing]
        if len(spacing) != boxes:
            raise ValueError("need one spacing entry per box")
        if any(a >= b for a, b in zip(spacing, spacing[1:])):
            raise ValueError("spacing schedule must be strictly increasing")
    parts = [cycle_window(s) for s in sizes]
    space = disjoint_union(parts, spacing)
    offsets = space.meta["offsets"]
    return BoxSpaceModel(
        m=m, boxes=boxes, spacing=tuple(spacing), space=space,
        offsets=tuple(offsets), sizes=tuple(sizes),
    )


class BoxFamilyReport(namedtuple("BoxFamilyReport", [
        "S", "J",
        "injectivity_threshold",  # least cycle length for faithful translate counting
        "pairs_checked", "equalities_hold",
        "equality_failures",  # [(j, gbar, hbar)]
        "worst_ratio",
        "worst_model_ratio"]), Doc):  # worst |gF /\ hF| ratio in the integers
    __slots__ = ()


def box_family(model: BoxSpaceModel, F, R, epsilon) -> tuple[IndexedFamily, BoxFamilyReport]:
    """Translate family on a box space from a Folner set F of the integers.

    Boxes deep enough that their cycle reproduces integer translate
    counting (length >= 2(R+2S)+1, with S = max(diam F, d(0,F))) get
    A_gbar = gbar + pi_j(F); the finitely many shallow boxes j <= J share
    the catch-all set of all their points. The report verifies, pair by
    pair, that deep-box symmetric differences and intersections equal
    their integer counterparts exactly.
    """
    F = list(F)
    for f in F:
        if type(f) is not int:
            raise ValueError(f"box family F must hold integer ids, got {f!r}")
    F = sorted(set(F))
    if not F:
        raise ValueError("Folner set F is empty")
    R = check_radius(R, "R")
    epsilon = check_radius(epsilon, "epsilon")
    if epsilon == 0:
        raise ValueError("epsilon must be positive")
    Fset = set(F)

    # Folner precondition for F in the integers, checked exactly
    r_int = int(R)
    shift_terms = []  # (|F (+) F+delta|, |F & F+delta|) at each shift delta
    for delta in range(0, r_int + 1):
        shifted = {f + delta for f in F}
        sym = len(Fset ^ shifted)
        inter = len(Fset & shifted)
        shift_terms.append((sym, inter))
        q = Fraction(sym, inter) if inter else None
        if q is None or not (q < epsilon):
            raise ValueError(
                f"F is not a Folner set at range {R}, epsilon {epsilon}: "
                f"shift {delta} gives ratio {q if q is not None else 'infinity'}"
            )
    worst_model = max(map(_as_ratio, shift_terms))

    diam = Fraction(F[-1] - F[0])
    dist_to_zero = Fraction(min(abs(f) for f in F))
    S = max(diam, dist_to_zero)

    need = 2 * (R + 2 * S) + 1
    threshold = -(-need.numerator // need.denominator)  # exact ceiling, for rational R or S
    j_iso = 1
    while model.m ** j_iso < threshold:
        j_iso += 1
    J = j_iso - 1
    # boxes within range R of another box must all lie in the catch-all zone;
    # box j >= 2 lies spacing[j-1] from each box before it (spacing[0] is no distance)
    for j in range(2, model.boxes + 1):
        if model.spacing[j - 1] <= R:
            J = max(J, j)
    if model.boxes <= J:
        raise WindowTooSmall(
            f"need more than J={J} boxes to host translate families; got {model.boxes}"
        )

    catchall = [
        p for j in range(1, J + 1) for p in model.box_points(j)
    ]
    chains = {}
    for j in range(1, J + 1):
        cat_chain = Chain.from_set(catchall)
        for p in model.box_points(j):
            chains[p] = cat_chain
    for j in range(J + 1, model.boxes + 1):
        size = model.size(j)
        off = model.offsets[j - 1]
        for g in range(size):
            chains[off + g] = Chain.from_set(
                off + ((g + f) % size) for f in F
            )

    # exact equalities against the integer model, all in-range deep pairs: the
    # deep chains are flat, so a pair's terms are (|A (+) B|, |A & B|)
    rows = []  # (x, y, terms) of each deep pair
    failures = []
    for j in range(J + 1, model.boxes + 1):
        size = model.size(j)
        off = model.offsets[j - 1]
        for g in range(size):
            for delta in range(1, r_int + 1):
                h = (g + delta) % size
                rows.append((off + g, off + h, terms := _terms(chains[off + g], chains[off + h])))
                if terms != shift_terms[delta]:
                    failures.append((j, g, h))

    max_radius = max(model.space.support_radius(x, c.keys()) for x, c in chains.items())
    params = FamilyParams(R=R, epsilon=epsilon, S=max_radius, M=0)
    fam = IndexedFamily(space=model.space, chains=chains, params=params)

    report = BoxFamilyReport(
        S=S,
        J=J,
        injectivity_threshold=threshold,
        pairs_checked=len(rows),
        equalities_hold=not failures,
        equality_failures=failures,
        worst_ratio=_as_ratio(_worst(rows)[2]) if rows else Fraction(0),  # 0 for R < 1
        worst_model_ratio=worst_model,
    )
    return fam, report
