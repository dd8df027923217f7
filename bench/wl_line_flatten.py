"""line-flatten: tent families flattened along the exit flow of a line.

Set-up builds the 401-point line of acceptance criterion 2 with its
scale-1 graph and exit flow. Each job builds a tent family of width W on a
core of ten indices, flattens it collecting escapes, and verifies the flat
family. Every width 4..11 gets the same number of jobs in every job list,
so the seed moves cores but not the cost mix; one job per width puts its
core inside the sink's tower-mass margin, where FlowEscaped is collected.
"""

from __future__ import annotations

import random
from fractions import Fraction

from folnerflow import build_flow, build_rips, flatten_family, generate, tent_family, verify_family

NAME = "line-flatten"
LINE = {"kind": "grid", "dim": 1, "low": -200, "high": 200}
WIDTHS = range(4, 12)
JOBS_PER_WIDTH = 15
CORE = 10
ESCAPES = 3  # indices of an escaping core that lie inside the margin
WARMUP = 5


def margin(W):
    """Cores below this index push tower mass onto the sink at point 0: the
    flow runs toward it and a width-W tent flattens onto W*W points."""
    return W * (W - 1)


def tent_eps(W):
    """Just above a width-W tent's own worst ratio 2/(W-1)."""
    return Fraction(2, W - 1) * Fraction(101, 100)


def setup(seed, workdir, tr):
    space = tr.call("space.generate", generate, LINE)
    rips = tr.call("rips.build_rips", build_rips, space, 1)
    flow = tr.call("rips.build_flow", build_flow, space, rips)
    return {"space": space, "flow": flow}


def make_jobs(seed, state):
    rng = random.Random(f"{NAME}/{seed}")
    last = state["space"].n - 1
    jobs = []
    for W in WIDTHS:
        escaping = rng.randrange(JOBS_PER_WIDTH)
        for k in range(JOBS_PER_WIDTH):
            if k == escaping:
                lo = margin(W) - ESCAPES
            else:
                lo = rng.randint(margin(W), last - (W - 1) - (CORE - 1))
            jobs.append({"W": W, "lo": lo, "escape": k == escaping})
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"lf{i:03d}"
    return jobs


def run_job(state, job, tr):
    W = job["W"]
    core = range(job["lo"], job["lo"] + CORE)
    fam = tr.call("families.tent_family", tent_family, state["space"], W, 1, tent_eps(W),
                  core=core)
    out, report = tr.call("flatten.flatten_family", flatten_family, fam, state["flow"],
                          on_escape="collect")
    verdict = tr.call("chains.verify_family", verify_family, out, require_flat=True)
    return fam, out, report, verdict


def check(state, job, result):
    fam, out, report, verdict = result
    failures = []
    escaped = set(report.escaped_indices)
    if not escaped <= set(fam.chains):
        failures.append(f"escaped indices {sorted(escaped - set(fam.chains))} outside the core")
    if bool(escaped) != job["escape"]:
        failures.append(f"escaped {sorted(escaped)}, expected escapes: {job['escape']}")
    if set(out.chains) != set(fam.chains) - escaped:
        failures.append("flat family does not cover the non-escaped core")
    for x, chain in out.chains.items():
        if not chain.is_flat():
            failures.append(f"chain {x} is not 0,1-valued")
        if chain.l1() != fam.chains[x].l1():
            failures.append(f"chain {x} changed its l1 norm")
    if not verdict.passed:
        failures.append("verify_family(require_flat=True) failed")
    towers = sum(v - 1 for c in fam.chains.values() for v in c.values() if v > 1)
    counters = {
        "flatten.indices": len(fam.chains),
        "flatten.escaped": len(escaped),
        "flatten.tower_mass": towers,
        "flatten.max_steps": report.max_steps,
        "families.tent_family.mass": sum(c.l1() for c in fam.chains.values()),
        "chains.pairs": verdict.pair_count,
    }
    record = {"job": job, "flatten": report.to_json(), "verify": verdict.to_json()}
    return record, failures, counters
