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
sigma path (parking on a mapping; Lackner and Panholzer, JCTA 142, 2016).
A tower's units park along the run of free points below the point where
its previous unit parked, one sigma lookup and one insert each; where the
search meets an occupied point it jumps, through a "next point to try" map
(Tarjan 1975). After its last unit the tower points its start and the
points it jumped through at where that unit parked, as all points between
are occupied: at most units + towers lookups on a path, amortised on a
forest, where a tower from another branch can enter a parked run partway.
Depth drops by one per flow edge, so a tower's last unit parks furthest
downstream and gives the tower's largest parking step; `steps` is the
largest over the towers, taken once per tower. A unit that finds its sink
occupied escapes at step depth(y). The flat chain, the steps and whether
and when the chain escapes do not depend on the order in which units park;
when several sinks overflow at the shallowest escape step, `shift_step`
and `flatten` both report the smallest sink id. The step budget is checked
after the fact.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .chains import (Chain, FamilyParams, IndexedFamily, _as_ratio, _in_range, _terms, _worst,
                     base_and_towers)
from .errors import FlowEscaped, InternalInvariantError
from .jsonio import Doc, format_ratio
from .rips import FlowField


class FlattenTrace(namedtuple("FlattenTrace", "steps bound support_radius_growth escaped",
                              defaults=(False,)), Doc):
    """What one flattening run did: actual steps taken, the a-priori step
    budget ||a||_1 * ||towers(a)||_1, and how far the support can have
    spread (one flow edge of length <= r per step)."""

    __slots__ = ()


def _budget(a: Chain) -> int:
    """The a-priori step budget ||a||_1 * ||towers(a)||_1."""
    return a.l1() * (a.l1() - len(a))


def _check_domain(a: Chain, flow: FlowField):
    if not flow.depths.keys() >= a.keys():
        raise ValueError(f"chain point {min(a.keys() - flow.depths.keys())} "
                         "is not covered by the flow")


def shift_step(a: Chain, flow: FlowField) -> Chain:
    """One synchronous tower shift; raises FlowEscaped if a tower sits on a
    sink in the input snapshot (its mass would have nowhere to go)."""
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


def _park(a: Chain, flow: FlowField) -> tuple[Chain, int]:
    """The flat chain and the steps of `flatten`, without its trace: every
    tower unit parked by increasing depth (see the module docstring), the
    iteration's FlowEscaped with its sink and step, and the step budget
    checked."""
    if not a:
        raise ValueError("cannot flatten the empty chain")
    _check_domain(a, flow)
    get, depths = flow.sigma.get, flow.depths
    # last[u] for an occupied u: an occupied point on u's sigma path with only
    # occupied points between them, so the next point to try is sigma(last[u])
    last = {x: x for x in a}
    steps = 0
    escaped, escape_step = [], math.inf
    towers = {y: v - 1 for y, v in a.items() if v > 1}  # units above the base
    for y in sorted(towers, key=depths.__getitem__):
        if (d := depths[y]) > escape_step:
            break
        # run: y and the occupied points jumped through; p: the last occupied point seen
        run, p = [y], last[y]
        for _ in range(towers[y]):
            while (q := get(p)) in last:  # an occupied point: jump past it
                run.append(q)
                p = last[q]
            if q is None:  # every point down to the sink p is occupied
                escaped.append(p)
                escape_step = d
                break
            last[q] = p = q
        for h in run:  # every point from y down to p is now occupied
            last[h] = p
        if d - depths[p] > steps:  # p: where the tower's last unit parked (moot on escape)
            steps = d - depths[p]
    if escaped:
        raise FlowEscaped(sink=min(escaped), steps=escape_step)
    if steps > (bound := _budget(a)):
        raise InternalInvariantError(f"flattening {a!r} took {steps} steps > budget {bound}")
    return Chain._trusted(dict.fromkeys(last, 1)), steps


def flatten(a: Chain, flow: FlowField) -> tuple[Chain, FlattenTrace]:
    """Iterate `shift_step` until flat, by depth-ordered parking (see the
    module docstring): the flat chain and a trace, or the iteration's
    FlowEscaped with its sink and step."""
    flat, steps = _park(a, flow)
    return flat, FlattenTrace(steps=steps, bound=_budget(a), support_radius_growth=flow.r * steps)


class FlattenReport(namedtuple("FlattenReport", [
        "worst_ratio_before",  # Fraction | inf | None
        "worst_ratio_after", "max_steps", "new_S", "input_S", "r", "escaped_indices",
        "escaped_traces",  # index -> FlattenTrace
        "pair_regressions"]), Doc):  # always []: flatten_family raises at a worsened pair
    """Family-level flattening outcome, with the exact before/after worst
    ratios over in-range index pairs and the support-radius update."""

    __slots__ = ()


def flatten_family(fam: IndexedFamily, flow: FlowField,
                   on_escape: str = "raise") -> tuple[IndexedFamily, FlattenReport]:
    """Flatten every chain of the family along one shared flow.

    With on_escape="raise" (default) the first chain whose mass hits a
    sink aborts the run, naming its index. With "collect", escaped indices
    are dropped from the output family and listed in the report instead.

    The report compares the worst in-range ratio before and after, over the
    pairs of one `_in_range` pass. A pair whose ratio got worse would
    contradict the contraction property of flattening, so the first one
    raises InternalInvariantError naming it and both ratios.
    """
    if on_escape not in ("raise", "collect"):
        raise ValueError(f"on_escape must be 'raise' or 'collect', got {on_escape!r}")

    flat_chains = {}
    max_steps = 0
    escaped_traces = {}
    for x in fam.indices():
        try:
            flat_chains[x], steps = _park(fam.chains[x], flow)
        except FlowEscaped as err:
            if on_escape == "raise":
                raise FlowEscaped(sink=err.sink, steps=err.steps, index=x) from None
            escaped_traces[x] = FlattenTrace(
                steps=err.steps, bound=_budget(fam.chains[x]),
                support_radius_growth=flow.r * err.steps, escaped=True,
            )
        else:
            max_steps = max(max_steps, steps)

    new_S = fam.params.S + flow.r * max_steps
    out_params = FamilyParams(
        R=fam.params.R, epsilon=fam.params.epsilon, S=new_S, M=0,
    )
    out_fam = IndexedFamily(space=fam.space, chains=flat_chains, params=out_params)

    before, after = [], []  # (x, y, terms) rows of the input and the flat chains
    for x, y in _in_range(fam.space, flat_chains, fam.params.R):
        before.append((x, y, b := _terms(fam.chains[x], fam.chains[y])))
        after.append((x, y, a := _terms(flat_chains[x], flat_chains[y])))
        if a[0] * b[1] > b[0] * a[1]:
            raise InternalInvariantError(
                f"flattening worsened the ratio of pair ({x},{y}): "
                f"{format_ratio(_as_ratio(b))} -> {format_ratio(_as_ratio(a))}")

    report = FlattenReport(
        worst_ratio_before=_as_ratio(_worst(before)[2]) if before else None,
        worst_ratio_after=_as_ratio(_worst(after)[2]) if after else None,
        max_steps=max_steps,
        new_S=new_S,
        input_S=fam.params.S,
        r=flow.r,
        escaped_indices=sorted(escaped_traces),
        escaped_traces=escaped_traces,
        pair_regressions=[],
    )
    return out_fam, report
