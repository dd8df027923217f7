"""Tower shifting along a flow: one synchronous step, and flattening to a
0,1-valued chain by parking.

One step splits the chain a into base + towers from a frozen snapshot,
keeps the base in place and moves every tower unit one flow edge
downstream:

    step(a)(x) = base(a)(x) + sum of towers(a)(y) over y with sigma(y) = x.

The step preserves the l1 norm and is monotone (a <= a' pointwise implies
step(a) <= step(a')). Iterating, the support can only grow, the tower
mass strictly drops at least once every ||a||_1 steps, and the chain
becomes 0,1-valued within ||a||_1 * ||towers(a)||_1 steps -- after which
it is a fixed point. Mass that would have to flow past a sink means the
finite window is too small for the chain: FlowEscaped, at the step where
a tower sits on a sink.

`shift_step` is the executable specification; `flatten` computes its
iteration without running steps. A tower unit moves one flow edge per step
until it reaches a point outside the support, where one arriving unit
stays. So a unit from y reaches q at step depth(y) - depth(q): a deeper
tower always arrives later, and equal-depth towers that meet have merged.
Taken by increasing depth, each unit parks at the first free point of its
sigma path (parking on a mapping; Lackner and Panholzer, JCTA 142, 2016),
found by a path-compressed "next point to try" map (Tarjan 1975); `steps`
is the largest parking step. A unit that finds its sink occupied escapes
at step depth(y). The flat chain, the steps and whether and when the chain
escapes do not depend on the order in which units park; when several sinks
overflow at the shallowest escape step, `shift_step` and `flatten` both
report the smallest sink id. The step budget is checked after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chains import (Chain, FamilyParams, IndexedFamily, _as_ratio, _terms, base_and_towers,
                     in_range_pairs)
from .errors import FlowEscaped, InternalInvariantError
from .jsonio import Doc, format_ratio
from .rips import FlowField


@dataclass(frozen=True)
class FlattenTrace(Doc):
    """What one flattening run did: actual steps taken, the a-priori step
    budget ||a||_1 * ||towers(a)||_1, and how far the support can have
    spread (one flow edge of length <= r per step)."""

    steps: int
    bound: int
    support_radius_growth: Fraction
    escaped: bool = False


def _check_domain(a: Chain, flow: FlowField):
    for x in a:
        if x not in flow.depths:
            raise ValueError(f"chain point {x} is not covered by the flow")


def shift_step(a: Chain, flow: FlowField) -> Chain:
    """One synchronous tower shift; raises FlowEscaped if a tower sits on a
    sink in the input snapshot (its mass would have nowhere to go)."""
    if not a:
        return a
    _check_domain(a, flow)
    base, towers = base_and_towers(a)
    if sunk := flow.sinks.intersection(towers):
        raise FlowEscaped(sink=min(sunk), steps=0)
    out = dict(base)
    sigma = flow.sigma
    for y, t in towers.items():
        z = sigma[y]
        out[z] = out.get(z, 0) + t
    return Chain(out)


def flatten(a: Chain, flow: FlowField) -> tuple[Chain, FlattenTrace]:
    """Iterate `shift_step` until flat, by depth-ordered parking (see the
    module docstring): the flat chain and a trace, or the iteration's
    FlowEscaped with its sink and step."""
    if not a:
        raise ValueError("cannot flatten the empty chain")
    _check_domain(a, flow)
    sigma, depths = flow.sigma, flow.depths
    # last[u] for an occupied u: an occupied point on u's sigma path with only
    # occupied points between them, so the next point to try is sigma(last[u])
    last = {x: x for x in a}
    steps = 0
    escaped, escape_step = [], math.inf
    for y in sorted((y for y, v in a.items() if v > 1), key=depths.__getitem__):
        if (d := depths[y]) > escape_step:
            break
        u = y
        for _ in range(a[y] - 1):
            p = last[u]
            if (q := sigma.get(p)) in last:
                hops = [u]
                while q in last:
                    hops.append(q)
                    p = last[q]
                    q = sigma.get(p)
                for h in hops:
                    last[h] = p
            if q is None:  # every point down to the sink p is occupied
                escaped.append(p)
                escape_step = d
                break
            last[q] = u = q
            steps = max(steps, d - depths[q])
    if escaped:
        raise FlowEscaped(sink=min(escaped), steps=escape_step)
    bound = a.l1() * (a.l1() - len(a))
    if steps > bound:
        raise InternalInvariantError(f"flattening {a!r} took {steps} steps > budget {bound}")
    trace = FlattenTrace(steps=steps, bound=bound, support_radius_growth=flow.r * steps)
    return Chain._trusted(dict.fromkeys(last, 1)), trace


@dataclass
class FlattenReport(Doc):
    """Family-level flattening outcome, with the exact before/after worst
    ratios over in-range index pairs and the support-radius update."""

    worst_ratio_before: object  # Fraction | inf | None
    worst_ratio_after: object
    max_steps: int
    new_S: Fraction
    input_S: Fraction
    r: Fraction
    escaped_indices: list
    escaped_traces: dict  # index -> FlattenTrace
    pair_regressions: list  # [(x, y, before, after)] -- always empty


def flatten_family(
    fam: IndexedFamily,
    flow: FlowField,
    *,
    on_escape: str = "raise",
) -> tuple[IndexedFamily, FlattenReport]:
    """Flatten every chain of the family along one shared flow.

    With on_escape="raise" (default) the first chain whose mass hits a
    sink aborts the run, naming its index. With "collect", escaped indices
    are dropped from the output family and listed in the report instead.

    The report compares the worst in-range ratio before and after and
    checks pairwise that no ratio got worse; a regression would contradict
    the contraction property of flattening, so it raises
    InternalInvariantError.
    """
    if on_escape not in ("raise", "collect"):
        raise ValueError(f"on_escape must be 'raise' or 'collect', got {on_escape!r}")

    flat_chains = {}
    traces = {}
    escaped_traces = {}
    for x in fam.indices():
        try:
            flat_chains[x], traces[x] = flatten(fam.chains[x], flow)
        except FlowEscaped as err:
            if on_escape == "raise":
                raise FlowEscaped(sink=err.sink, steps=err.steps, index=x) from None
            norm = fam.chains[x].l1()
            escaped_traces[x] = FlattenTrace(
                steps=err.steps, bound=norm * (norm - len(fam.chains[x])),
                support_radius_growth=flow.r * err.steps, escaped=True,
            )

    max_steps = max((t.steps for t in traces.values()), default=0)
    new_S = fam.params.S + flow.r * max_steps
    out_params = FamilyParams(
        R=fam.params.R, epsilon=fam.params.epsilon, S=new_S, M=0,
    )
    out_fam = IndexedFamily(space=fam.space, chains=flat_chains, params=out_params)

    worst_before = worst_after = None
    regressions = []
    for x, y in in_range_pairs(fam.space, flat_chains, fam.params.R):
        before = bd, bm = _terms(fam.chains[x], fam.chains[y])
        after = ad, am = _terms(flat_chains[x], flat_chains[y])
        if worst_before is None or bd * worst_before[1] > worst_before[0] * bm:
            worst_before = before
        if worst_after is None or ad * worst_after[1] > worst_after[0] * am:
            worst_after = after
        if ad * bm > bd * am:
            regressions.append((x, y, _as_ratio(before), _as_ratio(after)))

    if regressions:
        x, y, before, after = regressions[0]
        raise InternalInvariantError(
            f"flattening worsened the ratio of pair ({x},{y}): "
            f"{format_ratio(before)} -> {format_ratio(after)}"
        )

    report = FlattenReport(
        worst_ratio_before=_as_ratio(worst_before),
        worst_ratio_after=_as_ratio(worst_after),
        max_steps=max_steps,
        new_S=new_S,
        input_S=fam.params.S,
        r=flow.r,
        escaped_indices=sorted(escaped_traces),
        escaped_traces=escaped_traces,
        pair_regressions=regressions,
    )
    return out_fam, report
