"""grid-metric: exact ball and distance work on grids; flatten never runs.

Set-up builds three windows with their frontier distances: the 61x61
grid, the 11x11x11 grid, and a disjoint union of five 12x12 grids with
rational spacings 3/2, 5/2, ..., whose cross-part distances are
non-integer and whose edge weights are not all one. It also builds the
small windows that searches, scale graphs and growth profiles run on.

Every job list holds the same multiset of job kinds and sizes, and balls
sit where the window does not truncate them, so the seed moves centres,
cores, coordinates and order but not the cost mix:
ball families verified on each large window, boundaries of balls, Folner
searches (some find nothing, and those set the tail), scale graphs at
r = 1, 2, 3 and growth profiles.
"""

from __future__ import annotations

import random
from fractions import Fraction

from folnerflow import (
    ball_family,
    boundary,
    build_rips,
    foelner_search,
    generate,
    growth_profile,
    verify_family,
)

NAME = "grid-metric"
PARTS = 5
UNION = {
    "kind": "union",
    "parts": [{"kind": "grid", "dim": 2, "low": 0, "high": 11}] * PARTS,
    "spacing": [f"{2 * k + 3}/2" for k in range(PARTS)],
}
LARGE = {
    "g2": {"kind": "grid", "dim": 2, "low": 0, "high": 60},
    "g3": {"kind": "grid", "dim": 3, "low": 0, "high": 10},
    "union": UNION,
}
# (window, family radius, pair range R); each entry is one job per list
BALL_JOBS = (
    [("g2", 2, 1), ("g2", 3, 1)] * 8
    + [("g3", 2, 1), ("g3", 3, 1)] * 8
    + [("union", 2, Fraction(3, 2)), ("union", Fraction(5, 2), Fraction(3, 2)),
       ("union", 3, 2), ("union", Fraction(7, 2), 2)] * 4
)
# (window, ball radius, boundary range R)
BOUNDARY_JOBS = (
    [("g2", r, R) for r in (3, 4, 5, 6) for R in (1, 2)]
    + [("g3", r, R) for r in (2, 3, 4, 5) for R in (1, 2)]
    + [("union", r, R) for r, R in zip(
        (3, Fraction(7, 2), 4, Fraction(9, 2)) * 2,
        (1, Fraction(3, 2), 2, Fraction(5, 2), 2, Fraction(5, 2), 1, Fraction(3, 2)))]
)
# (grid side, R, eps); sides 11..15 in every combination, which find
# nothing, plus two that find a witness on side 19. Side 17 finds nothing
# too, but its four searches would take a quarter of a pass and leave too
# few passes in a run for each job's median over them to settle
SEARCH_JOBS = [
    (side, R, eps)
    for side in (11, 13, 15) for R in (1, 2) for eps in (Fraction(1, 4), Fraction(1, 2))
] + [(19, 1, Fraction(1, 2))] * 2
RIPS_JOBS = [(side, r) for side in (16, 21, 26, 31) for r in (1, 2, 3)]
GROWTH_JOBS = [(side, radii) for side in (11, 13, 15, 17, 19) for radii in ((1, 2, 3), (1, 2, 3, 4))]
EPS = 3
CORE = 2  # radius of the index core around a ball family's centre
WARMUP = 5


def _grid(side, low):
    return {"kind": "grid", "dim": 2, "low": low, "high": low + side - 1}


def setup(seed, workdir, tr):
    rng = random.Random(f"{NAME}/{seed}/windows")
    windows = {}
    for key, spec in LARGE.items():
        windows[key] = tr.call("space.generate", generate, spec)
    sides = sorted({s for s, _, _ in SEARCH_JOBS} | {s for s, _ in RIPS_JOBS}
                   | {s for s, _ in GROWTH_JOBS})
    for side in sides:
        windows[side] = tr.call("space.generate", generate, _grid(side, rng.randint(-40, 40)))
    for space in windows.values():
        tr.call("space.frontier_distances", space.frontier_distances)
    return {"windows": windows}


def _center(rng, key, space, margin, k):
    """A centre whose balls the window does not truncate, where it has one;
    each job of a kind then costs the same whatever the seed."""
    if key == "union":
        # point (2, 2) of part k mod PARTS, near the base point through
        # which larger balls cross into the other parts
        return space.meta["offsets"][k % PARTS] + 2 * 12 + 2
    fd = space.frontier_distances()
    margin = min(margin, max(fd))
    return rng.choice([x for x in range(space.n) if fd[x] >= margin])


def make_jobs(seed, state):
    rng = random.Random(f"{NAME}/{seed}")
    windows = state["windows"]
    jobs = []
    for k, (key, radius, R) in enumerate(BALL_JOBS):
        space = windows[key]
        core = sorted(space.ball(_center(rng, key, space, radius + R + CORE, k), CORE))
        jobs.append({"kind": "ball", "window": key, "radius": radius, "R": R, "core": core})
    for k, (key, radius, R) in enumerate(BOUNDARY_JOBS):
        space = windows[key]
        U = sorted(space.ball(_center(rng, key, space, radius + R, k), radius))
        jobs.append({"kind": "boundary", "window": key, "R": R, "U": U})
    for side, R, eps in SEARCH_JOBS:
        jobs.append({"kind": "search", "window": side, "R": R, "eps": eps})
    for side, r in RIPS_JOBS:
        jobs.append({"kind": "rips", "window": side, "r": r})
    for side, radii in GROWTH_JOBS:
        jobs.append({"kind": "growth", "window": side, "radii": list(radii)})
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"gm{i:03d}"
    return jobs


def run_job(state, job, tr):
    space = state["windows"][job["window"]]
    kind = job["kind"]
    if kind == "ball":
        fam = tr.call("families.ball_family", ball_family, space, job["radius"], job["R"], EPS,
                      core=job["core"])
        return fam, tr.call("chains.verify_family", verify_family, fam)
    if kind == "boundary":
        return tr.call("constructions.boundary", boundary, space, job["U"], job["R"])
    if kind == "search":
        return tr.call("constructions.foelner_search", foelner_search, space, job["R"], job["eps"])
    if kind == "rips":
        return tr.call("rips.build_rips", build_rips, space, job["r"])
    return tr.call("space.growth_profile", growth_profile, space, job["radii"])


def check(state, job, result):
    space = state["windows"][job["window"]]
    kind = job["kind"]
    failures = []
    counters = {}
    if kind == "ball":
        fam, verdict = result
        if not fam.is_flat() or sorted(fam.chains) != job["core"]:
            failures.append("ball family is not a plain family on the core")
        if verdict.max_support_radius > Fraction(job["radius"]):
            failures.append("a ball reaches beyond its radius")
        counters["families.ball_family.points"] = sum(c.l1() for c in fam.chains.values())
        counters["chains.pairs"] = verdict.pair_count
        out = verdict.to_json()
    elif kind == "boundary":
        if result & set(job["U"]):
            failures.append("boundary meets the set")
        counters["constructions.boundary.points"] = len(result)
        out = sorted(result)
    elif kind == "search":
        counters["constructions.foelner_search.searches"] = 1
        if result is not None:
            # the witness claim, checked independently of the search
            fd = space.frontier_distances()
            if any(fd[u] <= job["R"] for u in result):
                failures.append("witness is not fully interior")
            if len(boundary(space, result, job["R"])) > job["eps"] * len(result):
                failures.append("witness boundary exceeds eps * |U|")
            counters["constructions.foelner_search.found"] = 1
        out = None if result is None else sorted(result)
    elif kind == "rips":
        edges = sorted((x, y) for x in range(result.n) for y in result.neighbors[x] if x < y)
        if any(x not in result.neighbors[y] for x, y in edges):
            failures.append("scale graph is not symmetric")
        if sorted(p for c in result.components for p in c) != list(range(space.n)):
            failures.append("components do not partition the window")
        counters["rips.edges"] = result.edge_count()
        out = {"edges": edges, "components": [min(c) for c in result.components]}
    else:
        counters["space.growth_profile.balls"] = sum(
            len(space.interior_points(R)) for R in job["radii"])
        out = result.to_json()
    return {"job": _plain(job), "out": out}, failures, counters


def _plain(job):
    """The job with exact rationals spelled as strings, for the digest."""
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in job.items()}
