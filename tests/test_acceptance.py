"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Every expected value is exact; randomized parts use fixed seeds so a
failure is reproducible bit for bit.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from conftest import (in_range_pairs, leq, meet, random_chain, random_tree_space, set_ratio,
                      setminus)
from folnerflow import (
    Chain,
    FamilyParams,
    FlowEscaped,
    INFINITE_RATIO,
    IndexedFamily,
    NotCoarselyUnbounded,
    build_tree_tails,
    flatten,
    flatten_family,
    grid_window,
    perturbed_cluster_family,
    ratio,
    shift_step,
    tail_transport,
    tent_family,
    tree_window,
    verify_family,
    verify_tail_cover,
)
from folnerflow.chains import base_and_towers
from folnerflow.constructions import box_family, build_box_space
from folnerflow.rips import build_flow, build_rips
from folnerflow.space import cycle_window


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")
        return run
    return wrap


SPINE = 32  # drain length > max chain mass: tower mass cannot reach the sink


@criterion(1, "flatten engine: norm, termination, monotonicity, contraction")
def test_criterion_1_flatten_engine():
    rng = random.Random(20260811)
    t0 = time.monotonic()
    chains_done = 0
    for _trial in range(500):
        n = rng.randint(SPINE + 20, 200)
        space = random_tree_space(rng, n, SPINE)
        flow = build_flow(space, build_rips(space, 1))
        support = list(range(SPINE, n))
        a = random_chain(rng, support, 30)
        b = random_chain(rng, support, 30)

        for c in (a, b):
            # (a) one step and the full run preserve the l1 norm
            assert shift_step(c, flow).l1() == c.l1()
            # (b) flat within the budget; InternalInvariantError would
            # propagate out of flatten() as a failure of this test
            flat, trace = flatten(c, flow)
            assert flat.is_flat()
            assert flat.l1() == c.l1()
            _, towers = base_and_towers(c)
            assert trace.steps <= trace.bound == c.l1() * towers.l1()
            chains_done += 1

        # (c) nested pair: pointwise order survives every step
        small = Chain({x: rng.randint(0, v) for x, v in a.items()})
        if small:
            lo, hi = small, a
            while True:
                assert leq(lo, hi)
                if lo.is_flat() and hi.is_flat():
                    break
                lo, hi = shift_step(lo, flow), shift_step(hi, flow)

        # (d) meet inequality and one-sided contraction
        fa, _ = flatten(a, flow)
        fb, _ = flatten(b, flow)
        m = meet(a, b)
        if m:
            fm, _ = flatten(m, flow)
            assert leq(fm, meet(fa, fb))
        assert setminus(fa, fb).l1() <= setminus(a, b).l1()

    elapsed = time.monotonic() - t0
    assert chains_done == 1000
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "weighted-to-plain end to end on the integer line")
def test_criterion_2_line_pipeline():
    t0 = time.monotonic()
    space = grid_window(1, -200, 200)
    assert space.n >= 400
    flow = build_flow(space, build_rips(space, 1))
    W, eps = 11, Fraction(1, 4)
    # tent mass is 121 = W + 2*(1 + ... + W-1); the 100 excess units drain
    # toward the sink at id 0, so indices need 110 points of margin there
    core = range(110, 390)
    fam = tent_family(space, W, R=1, epsilon=eps, core=core)
    out, report = flatten_family(fam, flow)

    assert out.is_flat()
    assert not report.escaped_indices

    # brute-force pair oracle: expanded multiset counts before, plain set
    # counts after; checked for every in-range pair
    def multiset(c):
        return {(x, i) for x, v in c.items() for i in range(v)}

    for x, y in in_range_pairs(space, out.chains, 1):
        A, B = multiset(fam.chains[x]), multiset(fam.chains[y])
        before = set_ratio(A, B)
        after = set_ratio(set(out.chains[x].support()), set(out.chains[y].support()))
        assert after <= before
        assert after < eps
        # the library agrees with the oracle exactly
        assert ratio(fam.chains[x], fam.chains[y]) == before
        assert ratio(out.chains[x], out.chains[y]) == after

    for x in out.chains:
        for z in out.chains[x].support():
            assert space.dist(x, z) <= report.new_S

    vr = verify_family(out, require_flat=True)
    assert vr.passed
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 2 took {elapsed:.1f}s"


@criterion(3, "tail transport on the depth-12 binary tree")
def test_criterion_3_tail_transport():
    rng = random.Random(1229)
    tree = tree_window(2, 12)
    cover = build_tree_tails(tree)
    cover_report = verify_tail_cover(cover, tree)
    assert cover_report.passed
    assert cover_report.measured_K <= 2
    assert cover_report.measured_step == 1
    K = cover.K

    M = 4
    eps = Fraction(1, 4)
    eps_in = eps / K  # 1/8; the cluster generator guarantees <= 4/38
    depths = tree.meta["depths"]
    # transported lookups reach tail position M, so members must sit at
    # depth <= 8 where tails still have M+1 entries before truncation
    center_pool = [v for v in range(tree.n) if 4 <= depths[v] <= 6]

    for trial in range(500):
        centers = []
        while len(centers) < 3:
            c = rng.choice(center_pool)
            if all(tree.dist(c, o) > 1 + 2 * 1 for o in centers):
                centers.append(c)
        fam = perturbed_cluster_family(
            tree, rng, M=M, centers=centers, cluster_radius=2, core_radius=1,
            base_size=40, R=1, epsilon=eps_in,
        )
        # precondition holds exactly: in-range input ratios below eps/K
        for x, y in in_range_pairs(tree, fam.sets, 1):
            q = set_ratio(set(fam.sets[x]), set(fam.sets[y]))
            assert q < eps_in

        out = tail_transport(fam, cover, tree)
        assert out.params.epsilon == eps_in * K <= eps

        for x, y in in_range_pairs(tree, out.chains, 1):
            q = set_ratio(set(out.chains[x].support()), set(out.chains[y].support()))
            assert q < eps
            assert ratio(out.chains[x], out.chains[y]) == q

        # compression spot-checks on the sets actually transported plus a
        # random union of them
        sets = list(fam.sets.values())
        for Z in (*sets[:3], frozenset().union(*rng.sample(sets, 2))):
            img = {cover.tails[y][M - n] for (y, n) in Z}
            assert len(Z) <= K * len(img)

        bound = M * cover.r + fam.params.S
        for x, c in out.chains.items():
            for z in c.support():
                assert tree.dist(x, z) <= bound


@criterion(4, "level-collapse of product families")
def test_criterion_4_product_projection():
    from folnerflow.constructions import project_family
    from folnerflow.space import product_with_interval

    rng = random.Random(42)
    eps = Fraction(1, 2)
    base = grid_window(1, 0, 30)
    products = {M: product_with_interval(base, M) for M in (1, 2, 3, 4)}

    for trial in range(1000):
        M = rng.randint(1, 4)
        prod = products[M]
        assert prod.n <= 200
        eps_in = eps / M

        lo = rng.randint(5, 12)
        pool = [z * M + i for z in range(lo - 4, lo + 14) for i in range(M)]
        C = set(rng.sample(pool, min(40, len(pool) - 2)))
        spare = [p for p in pool if p not in C]
        chains = {}
        for z in range(lo, lo + 8):
            drop = rng.choice(sorted(C))
            add = rng.choice(spare)
            chains[z * M] = Chain.from_set((C - {drop}) | {add})
        fam = IndexedFamily(
            space=prod, chains=chains,
            params=FamilyParams(R=1, epsilon=eps_in, S=100, M=0),
        )
        # the swap construction keeps every in-range ratio at most 4/(|C|-2)
        for x, y in in_range_pairs(prod, chains, 1):
            assert ratio(chains[x], chains[y]) < eps_in

        out = project_family(prod, fam)
        assert out.params.epsilon == eps

        for (zx, zy) in in_range_pairs(base, out.chains, 1):
            A = set(chains[zx * M].support())
            B = set(chains[zy * M].support())
            PA = set(out.chains[zx].support())
            PB = set(out.chains[zy].support())
            # counting inequalities, exactly, on every instance
            assert len(PA ^ PB) <= len(A ^ B)
            assert M * len(PA & PB) >= len(A & B)
            q = set_ratio(PA, PB)
            assert q < eps
            assert ratio(out.chains[zx], out.chains[zy]) == q


@criterion(5, "box-space translate families")
def test_criterion_5_box_space():
    t0 = time.monotonic()
    model = build_box_space(4, 5)
    F = list(range(10))
    fam, report = box_family(model, F, 1, Fraction(1, 4))

    assert report.S == 9
    assert report.J == 2
    assert report.equalities_hold and not report.equality_failures
    assert report.worst_ratio == Fraction(2, 9) < Fraction(1, 4)

    # independent re-check of the exact equalities on every in-range deep
    # pair: |A (+) B| = |gF (+) hF| and |A & B| = |gF & hF|
    Fset = set(F)
    for j in (3, 4, 5):
        size = model.sizes[j - 1]
        off = model.offsets[j - 1]
        shifted = {f + 1 for f in F}
        want_sym, want_int = len(Fset ^ shifted), len(Fset & shifted)
        for g in range(size):
            A = fam.chains[off + g].support()
            B = fam.chains[off + (g + 1) % size].support()
            assert len(A ^ B) == want_sym == 2
            assert len(A & B) == want_int == 9

    # shallow boxes share the catch-all set: ratio-0 pairs, trivially valid
    catchall = fam.chains[0]
    for j in (1, 2):
        for p in model.box_points(j):
            assert fam.chains[p] == catchall

    assert verify_family(fam, require_flat=True).passed
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"criterion 5 took {elapsed:.1f}s"


@criterion(6, "degenerate inputs behave as documented")
def test_criterion_6_degenerate_suite():
    # already-flat chains are fixed points of the shift
    line = grid_window(1, 0, 9)
    flow = build_flow(line, build_rips(line, 1))
    flat = Chain.from_set({3, 5, 8})
    assert shift_step(flat, flow) == flat
    out, trace = flatten(flat, flow)
    assert out == flat and trace.steps == 0

    # empty-intersection pairs report the infinite ratio and fail checks
    fam = IndexedFamily(
        space=line,
        chains={4: Chain.from_set({4}), 5: Chain.from_set({5})},
        params=FamilyParams(R=1, epsilon=Fraction(1, 4), S=0),
    )
    assert ratio(fam.chains[4], fam.chains[5]) == INFINITE_RATIO
    report = verify_family(fam)
    assert not report.passed
    assert report.worst_ratio == INFINITE_RATIO

    # components without a frontier point cannot host a flow
    c9 = cycle_window(9)
    with pytest.raises(NotCoarselyUnbounded):
        build_flow(c9, build_rips(c9, 1))

    # undersized window: mass 4 at flow depth 2 must escape
    short = grid_window(1, 0, 2)
    short_flow = build_flow(short, build_rips(short, 1))
    with pytest.raises(FlowEscaped):
        flatten(Chain({2: 4}), short_flow)
