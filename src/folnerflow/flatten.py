"""Tower shifting along a flow: one synchronous step, and iteration to a
0,1-valued chain.

One step splits the chain a into base + towers from a frozen snapshot,
keeps the base in place and moves every tower unit one flow edge
downstream:

    step(a)(x) = base(a)(x) + sum of towers(a)(y) over y with sigma(y) = x.

The step preserves the l1 norm and is monotone (a <= a' pointwise implies
step(a) <= step(a')). Iterating, the support can only grow, the tower
mass strictly drops at least once every ||a||_1 steps, and the chain
becomes 0,1-valued within ||a||_1 * ||towers(a)||_1 steps -- after which
it is a fixed point. Exceeding that budget is impossible for a correct
implementation, so the loop treats it as an internal error rather than
looping on.

Mass that would have to flow past a sink means the finite window is too
small for the chain; that raises FlowEscaped at the step where a tower
actually sits on a sink (the budget precheck is only a warning, since
most runs finish far below the bound).

`shift_step` is the executable specification; `flatten` never rebuilds
the chain. The base never moves, so its state is the support (insertion
ordered, point -> position) and the towers (point -> height above 1, in
support order): a step sums the tower mass arriving at each sigma(y),
adds newly reached points, and keeps the excess over 1 as the next
towers, in O(|towers|). Steps, errors and the returned chain are those
of iterated `shift_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import Chain, FamilyParams, IndexedFamily, base_and_towers, in_range_pairs, ratio
from .errors import FlowEscaped, InternalInvariantError
from .jsonio import format_ratio, format_rational
from .rips import FlowField


@dataclass(frozen=True)
class FlattenTrace:
    """What one flattening run did: actual steps taken, the a-priori step
    budget ||a||_1 * ||towers(a)||_1, and how far the support can have
    spread (one flow edge of length <= r per step)."""

    steps: int
    bound: int
    support_radius_growth: Fraction
    escaped: bool = False

    def to_json(self):
        return {
            "steps": self.steps,
            "bound": self.bound,
            "support_radius_growth": format_rational(self.support_radius_growth),
            "escaped": self.escaped,
        }


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
    for x in towers:
        if x in flow.sinks:
            raise FlowEscaped(sink=x, steps=0)
    out = dict(base)
    sigma = flow.sigma
    for y, t in towers.items():
        z = sigma[y]
        out[z] = out.get(z, 0) + t
    return Chain(out)


def flatten(a: Chain, flow: FlowField) -> tuple[Chain, FlattenTrace]:
    """Iterate shift steps until the chain is 0,1-valued.

    Returns the flat chain plus a trace. The loop exits early at the first
    flat iterate (flat chains are fixed points); running through the whole
    budget without flatness raises InternalInvariantError, because the
    termination bound makes that impossible.
    """
    if not a:
        raise ValueError("cannot flatten the empty chain")
    _check_domain(a, flow)
    sigma, sinks = flow.sigma, flow.sinks
    support = {x: i for i, x in enumerate(a)}
    towers = {x: v - 1 for x, v in a.items() if v > 1}
    tower_mass = a.l1() - len(a)
    bound = a.l1() * tower_mass
    steps = 0
    while towers:
        if steps >= bound:
            current = Chain({x: 1 + towers.get(x, 0) for x in support})
            raise InternalInvariantError(
                f"chain not 0,1-valued after the full step budget {bound}; "
                f"norm={a.l1()}, towers={tower_mass}, got {current!r}"
            )
        arrived = {}  # z -> new height above 1 at z
        for y, t in towers.items():
            if y in sinks:
                raise FlowEscaped(sink=y, steps=steps)
            z = sigma[y]
            if z not in support:  # a newly reached point keeps one unit as base
                support[z] = len(support)
                arrived[z] = -1
            arrived[z] = arrived.get(z, 0) + t
        towers = {z: arrived[z] for z in sorted(arrived, key=support.__getitem__)
                  if arrived[z]}
        steps += 1
    trace = FlattenTrace(steps=steps, bound=bound, support_radius_growth=flow.r * steps)
    return Chain._trusted(dict.fromkeys(support, 1)), trace


@dataclass
class FlattenReport:
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

    def to_json(self):
        return {
            "worst_ratio_before": None if self.worst_ratio_before is None
            else format_ratio(self.worst_ratio_before),
            "worst_ratio_after": None if self.worst_ratio_after is None
            else format_ratio(self.worst_ratio_after),
            "max_steps": self.max_steps,
            "new_S": format_rational(self.new_S),
            "input_S": format_rational(self.input_S),
            "r": format_rational(self.r),
            "escaped_indices": sorted(self.escaped_indices),
            "escaped_traces": {
                str(x): t.to_json() for x, t in sorted(self.escaped_traces.items())
            },
            "pair_regressions": [
                [x, y, format_ratio(b), format_ratio(c)]
                for x, y, b, c in self.pair_regressions
            ],
        }


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
        before = ratio(fam.chains[x], fam.chains[y])
        after = ratio(flat_chains[x], flat_chains[y])
        if worst_before is None or before > worst_before:
            worst_before = before
        if worst_after is None or after > worst_after:
            worst_after = after
        if after > before:
            regressions.append((x, y, before, after))

    if regressions:
        x, y, before, after = regressions[0]
        raise InternalInvariantError(
            f"flattening worsened the ratio of pair ({x},{y}): "
            f"{format_ratio(before)} -> {format_ratio(after)}"
        )

    report = FlattenReport(
        worst_ratio_before=worst_before,
        worst_ratio_after=worst_after,
        max_steps=max_steps,
        new_S=new_S,
        input_S=fam.params.S,
        r=flow.r,
        escaped_indices=sorted(escaped_traces),
        escaped_traces=escaped_traces,
        pair_regressions=regressions,
    )
    return out_fam, report
