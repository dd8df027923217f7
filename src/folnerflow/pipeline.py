"""Config-driven pipeline runner with JSON artifacts.

A run is an ordered list of named stages; each stage reads the live
objects of earlier stages by name, writes its own artifacts to the output
directory, and contributes a summary to the final run report. Randomized
stages draw from a RNG seeded by (run seed, stage name), so a fixed
config and seed reproduce every byte of every artifact.

`STAGES` is the one table of stage kinds. Each entry gives the kind's
inputs (role -> the producer kinds that role accepts), its run function
`(inputs, params, rng) -> (object, {file suffix: JSON doc}, summary)`,
its `explain` blurb and its failure rule (summary -> whether the stage
failed); doc suffix `s` lands in `<stage name><s>.json`. A stage's live
object is what loading its artifact returns (the `rips` object is
`(RipsGraph, frontier)`, as `rips_from_json` gives it). Every CLI command but
`run` and `explain` is one stage kind: it loads its files and calls the
same run function, and exits 1 where the failure rule holds.

The run passes iff no stage fails its rule; `explain` renders the stored
report for humans.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError, FolnerflowError, PipelineStageError
from .jsonio import dump_json, format_rational, parse_ids, parse_rational


class Stage(NamedTuple):
    name: str
    kind: str
    params: dict
    inputs: dict


class PipelineConfig(NamedTuple):
    stages: list
    seed: int = 0

    @classmethod
    def from_json(cls, doc) -> "PipelineConfig":
        if not isinstance(doc, dict) or "stages" not in doc:
            raise ConfigError("config must be an object with a 'stages' list")
        stages = []
        names = set()
        for i, s in enumerate(doc["stages"]):
            try:
                stage = Stage(
                    name=s["name"],
                    kind=s["kind"],
                    params=s.get("params", {}),
                    inputs=s.get("inputs", {}),
                )
            except (KeyError, TypeError) as e:
                raise ConfigError(f"stage {i} is missing {e}") from e
            for key, v in (("params", stage.params), ("inputs", stage.inputs)):
                if not isinstance(v, dict):
                    raise ConfigError(f"stage {stage.name!r}: {key} must be an object, got {v!r}")
            if stage.kind not in STAGES:
                raise ConfigError(
                    f"stage {stage.name!r}: unknown kind {stage.kind!r}"
                )
            if stage.name in names:
                raise ConfigError(f"duplicate stage name {stage.name!r}")
            for role, ref in stage.inputs.items():
                if ref not in names:
                    raise ConfigError(
                        f"stage {stage.name!r} references {ref!r} as its "
                        f"{role}, but no earlier stage has that name"
                    )
            names.add(stage.name)
            stages.append(stage)
        seed = doc.get("seed", 0)
        if not isinstance(seed, int):
            raise ConfigError("seed must be an integer")
        return cls(stages=stages, seed=seed)


# -- stage kinds: run functions (inputs, params, rng) -> (object, docs, summary)
# Each imports the modules it runs, so a CLI child (and `explain`) loads no
# more than its own stage needs.


def _chain_family(fam, kind):
    from .chains import IndexedFamily
    if not isinstance(fam, IndexedFamily):
        raise ConfigError(f"{kind} needs a weighted chain family, not a multiset family or "
                          "a bare space (use family_from_multisets or transport)")
    return fam


def _generate(inputs, p, rng):
    from .space import generate, space_to_json
    space = generate(p.get("spec"))
    return space, {"": space_to_json(space)}, {"points": space.n, "frontier": len(space.frontier)}


def _rips(inputs, p, rng):
    from .rips import build_rips, check_coarsely_unbounded, rips_to_json
    space = inputs["space"]
    rg = build_rips(space, parse_rational(p.get("r", "1/1")))
    reach = check_coarsely_unbounded(space, rg)
    return (rg, space.frontier), {"": rips_to_json(space, rg)}, {
        "components": len(rg.components), "edges": rg.edge_count(),
        "all_components_reach_frontier": reach.passed}


def _flow(inputs, p, rng):
    from .rips import build_flow_from_parts, flow_to_json
    flow = build_flow_from_parts(*inputs["rips"])
    return flow, {"": flow_to_json(flow)}, {"sinks": sorted(flow.sinks)}


def _family(inputs, p, rng):
    from .chains import MultisetFamily, family_to_json, multiset_family_to_json
    fam = _make_family(inputs["space"], p, rng)
    if isinstance(fam, MultisetFamily):
        return fam, {"": multiset_family_to_json(fam)}, {"indices": len(fam.sets)}
    return fam, {"": family_to_json(fam)}, {"indices": len(fam.chains)}


def _flatten(inputs, p, rng):
    from .chains import family_to_json
    from .flatten import flatten_family
    from .rips import check_flow_on_space
    fam = _chain_family(inputs["family"], "flatten")
    check_flow_on_space(inputs["flow"], fam.space)
    out, report = flatten_family(fam, inputs["flow"], on_escape=p.get("on_escape", "raise"))
    summary = report.to_json()
    return out, {"": family_to_json(out), ".report": summary}, summary


def _tails(inputs, p, rng):
    from .tails import build_tree_tails, cover_to_json
    cover = build_tree_tails(inputs["space"])
    summary = {"K": cover.K, "r": format_rational(cover.r)}
    return cover, {"": cover_to_json(cover)}, summary


def _transport(inputs, p, rng):
    from .chains import MultisetFamily, family_to_json
    from .tails import check_cover_on_space, tail_transport
    fam, M = inputs["family"], p.get("M")
    if not isinstance(fam, MultisetFamily):
        raise ConfigError("transport needs a multiset family")
    if M is not None and M != fam.M:
        raise ConfigError(f"--M {M} does not match the family's height bound {fam.M}")
    check_cover_on_space(inputs["tails"], inputs["space"])
    out = tail_transport(fam, inputs["tails"], inputs["space"])
    return out, {"": family_to_json(out)}, {
        "indices": len(out.chains), "new_S": format_rational(out.params.S),
        "epsilon": format_rational(out.params.epsilon)}


def _box(inputs, p, rng):
    from .chains import family_to_json
    from .constructions import box_family, build_box_space
    from .space import space_to_json
    spacing = p.get("spacing")
    model = build_box_space(p["m"], p["boxes"], spacing and [parse_rational(s) for s in spacing])
    docs = {".space": space_to_json(model.space)}
    if p["F"] is None:  # the box space alone, as `box build` without --F
        return model.space, docs, {}
    fam, report = box_family(
        model, parse_ids(p["F"]), parse_rational(p["R"]), parse_rational(p["epsilon"]))
    summary = report.to_json()
    return fam, {**docs, "": family_to_json(fam), ".report": summary}, summary


def _verify(inputs, p, rng):
    from .chains import verify_family
    fam = _chain_family(inputs["family"], "verify")
    report = verify_family(fam, require_flat=p.get("require_flat", False))
    summary = report.to_json()
    return report, {".report": summary}, summary


def _info(inputs, p, rng):
    from .space import growth_profile
    space, radii = inputs["space"], [parse_rational(r) for r in p.get("radii") or []]
    doc = {"label": space.label, "points": space.n, "frontier": sorted(space.frontier),
           "growth": growth_profile(space, radii).to_json() if radii else {}}
    return doc, {"": doc}, doc


def _verify_tails(inputs, p, rng):
    from .tails import verify_tail_cover
    summary = verify_tail_cover(inputs["tails"], inputs["space"]).to_json()
    return summary, {".report": summary}, summary


def _boundary(inputs, p, rng):
    from .constructions import boundary
    U = parse_ids(p["U"])
    b = boundary(inputs["space"], U, parse_rational(p["R"]))
    doc = {"boundary": sorted(b), "size": len(b),
           "ratio": format_rational(Fraction(len(b), len(U))) if U else None}
    return b, {"": doc}, doc


def _search(inputs, p, rng):
    from .constructions import boundary, foelner_search
    space, R = inputs["space"], parse_rational(p["R"])
    U = foelner_search(space, R, parse_rational(p["epsilon"]))
    doc = {"found": U is not None, "witness": U and sorted(U)}
    if U is not None:
        b = boundary(space, U, R)
        doc.update(size=len(U), boundary_size=len(b),
                   ratio=format_rational(Fraction(len(b), len(U))))
    return U, {"": doc}, doc


def _push(inputs, p, rng):
    from .chains import family_to_json
    from .constructions import pushforward_injective
    f = {}
    if type(p["map"]) not in (list, tuple):
        raise ConfigError(f"the map must be a list of [x, y] pairs, got {p['map']!r}")
    for entry in p["map"]:
        if not (type(entry) in (list, tuple) and len(entry) == 2
                and all(type(v) is int for v in entry)):
            raise ConfigError(f"the map entry {entry!r} is not two int ids")
        x, y = entry
        if x in f:
            raise ConfigError(f"the map lists domain point {x} twice")
        f[x] = y
    R = p.get("target_R")
    out = pushforward_injective(_chain_family(inputs["family"], "push"), f, inputs["target"],
                                target_R=parse_rational(R) if R else None)
    return out, {"": family_to_json(out)}, {
        "indices": len(out.chains), "new_S": format_rational(out.params.S)}


def _project(inputs, p, rng):
    from .chains import family_to_json
    from .constructions import project_family
    fam = _chain_family(inputs["family"], "project")
    out = project_family(fam.space, fam)
    return out, {"": family_to_json(out)}, {
        "indices": len(out.chains), "epsilon": format_rational(out.params.epsilon)}


def _make_family(space, p, rng):
    from . import families
    kind = p.get("kind")
    R = parse_rational(p.get("R", "1/1"))
    eps = parse_rational(p.get("epsilon", "1/4"))
    core = p.get("core")
    if core is not None:
        core = _resolve_core(space, core)
    if kind == "tent":
        return families.tent_family(space, p["width"], R, eps, core=core)
    if kind == "ball":
        return families.ball_family(space, parse_rational(p["radius"]), R, eps, core=core)
    if kind == "singletons":
        return families.singleton_family(space, R, eps, core=core)
    if kind == "translates":
        from .constructions import group_foelner_family
        return group_foelner_family(space, parse_ids(p["F"]), R, eps, core=core)
    if kind == "random_multiset":
        return families.random_multiset_family(
            space, rng, M=p["M"], size=p["size"],
            spread=parse_rational(p["spread"]), R=R, epsilon=eps, core=core,
        )
    raise ConfigError(f"unknown family kind {kind!r}")


def _resolve_core(space, core):
    """A core is a list of point ids, or {"coords": [lo, hi]} on grids."""
    if isinstance(core, dict) and "coords" in core:
        lo, hi = core["coords"]
        index = space.meta.get("coord_index")
        if index is None:
            raise ConfigError("coordinate cores need a grid window")
        return [
            pid for c, pid in sorted(index.items())
            if all(lo <= v <= hi for v in c)
        ]
    if type(core) not in (list, tuple):
        raise ConfigError(f"core must be a list of point ids or coords, got {core!r}")
    for x in core:
        if type(x) is not int:
            raise ConfigError(f"core entry {x!r} is not an int point id")
    return core


class StageKind(NamedTuple):
    inputs: dict  # role -> the producer kinds it accepts
    run: Callable  # (inputs, params, rng) -> (object, {file suffix: JSON doc}, summary)
    blurb: str  # what `explain` says the stage does
    fails: Callable = lambda summary: False  # whether the stage failed: run fails, CLI exits 1


_SPACE = ("generate", "box")
_FAMILY = ("family", "flatten", "transport", "box")
STAGES = {
    "generate": StageKind({}, _generate, "window construction (exact metric, frontier marking)"),
    "info": StageKind({"space": _SPACE}, _info, "point count, frontier and largest interior "
                      "ball per radius"),
    "rips": StageKind({"space": _SPACE}, _rips, "scale-r neighbourhood graph and component split"),
    "flow": StageKind({"rips": ("rips",)}, _flow,
                      "exit flow: one tree edge per point toward a frontier sink"),
    "family": StageKind({"space": _SPACE}, _family, "family construction"),
    "flatten": StageKind({"family": ("family", "transport"), "flow": ("flow",)}, _flatten,
                         "tower shifting to a 0,1-valued family; checks that the worst "
                         "symmetric-difference/intersection ratio never grows",
                         lambda summary: bool(summary["escaped_indices"])),
    "tails": StageKind({"space": ("generate",)}, _tails,
                       "escape-sequence cover with bounded per-point multiplicity"),
    "verify_tails": StageKind({"tails": ("tails",), "space": _SPACE}, _verify_tails,
                              "tail cover check: each tail steps at most r to the frontier, "
                              "and no point lies on more than K tails",
                              lambda summary: not summary["passed"]),
    "transport": StageKind({"family": ("family",), "tails": ("tails",), "space": _SPACE},
                           _transport, "level-to-space transport along tails; ratios can "
                           "grow by at most the cover multiplicity K"),
    "boundary": StageKind({"space": _SPACE}, _boundary,
                          "R-boundary of a point set and its size per point"),
    "search": StageKind({"space": _SPACE}, _search, "Folner search: the first interior ball "
                        "whose R-boundary is at most epsilon times its size",
                        lambda summary: not summary["found"]),
    "push": StageKind({"family": _FAMILY, "target": _SPACE}, _push,
                      "pushforward along an injective map into a denser target window"),
    "project": StageKind({"family": _FAMILY}, _project, "projection from an interval "
                         "product; epsilon scales by the number of levels"),
    "box": StageKind({}, _box, "translate family on cyclic quotients; deep boxes must "
                     "reproduce integer translate counting exactly",
                     lambda summary: summary.get("equalities_hold") is False),
    "verify": StageKind({"family": _FAMILY}, _verify,
                        "ratio bound at range R, support-radius bound S, and "
                        "(optionally) 0,1-valuedness", lambda summary: not summary["passed"]),
}


class _Params(dict):
    """Stage params; a missing required one is a ConfigError."""

    def __missing__(self, key):
        raise ConfigError(f"missing parameter {key!r}")


def run(config: PipelineConfig, out_dir, *, seed=None) -> dict:
    """Execute all stages; returns the run report (also written to
    <out_dir>/report.json). Raises ConfigError for bad configs and lets
    stage errors propagate, prefixed with the stage name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.seed if seed is None else seed
    done = {}  # name -> (kind, live object)
    summaries = []
    failures = []
    for i, stage in enumerate(config.stages):
        spec = STAGES[stage.kind]
        inputs = {}
        for role, kinds in spec.inputs.items():
            ref = stage.inputs.get(role)
            if ref is None:
                raise ConfigError(f"stage {stage.name!r} needs an input {role!r}")
            kind, obj = done.get(ref, (None, None))
            if kind not in kinds:
                raise ConfigError(
                    f"stage {stage.name!r}: input {ref!r} is a {kind} stage, "
                    f"expected one of {kinds}"
                )
            # a box stage's object is its family, which carries the space
            inputs[role] = getattr(obj, "space", obj) if role in ("space", "target") else obj
        rng = random.Random(f"{seed}/{stage.name}")
        try:
            obj, docs, summary = spec.run(inputs, _Params(stage.params), rng)
        except ConfigError as e:
            raise ConfigError(f"stage {stage.name!r}: {e}") from e
        except FolnerflowError as e:
            raise PipelineStageError(stage.name, i, e) from e
        for suffix, doc in docs.items():
            dump_json(doc, out / f"{stage.name}{suffix}.json")
        done[stage.name] = (stage.kind, obj)
        summaries.append({"name": stage.name, "kind": stage.kind, **summary})
        if spec.fails(summary):
            failures.append(stage.name)

    report = {
        "seed": seed,
        "stages": summaries,
        "failed_stages": failures,
        "passed": not failures,
    }
    dump_json(report, out / "report.json")
    return report


# -- explain -----------------------------------------------------------------


def explain(report: dict) -> str:
    """Human-readable rendering of a run report: what each stage checked
    and the worst witnesses it found."""
    if "stages" not in report:
        raise ConfigError("not a run report: missing 'stages'")
    lines = []
    verdict = "PASS" if report.get("passed") else "FAIL"
    lines.append(f"run verdict: {verdict} (seed {report.get('seed')})")
    for s in report["stages"]:
        kind = s.get("kind", "?")
        lines.append(f"- {s.get('name')}: {STAGES[kind].blurb if kind in STAGES else kind}")
        if kind == "verify":
            if s.get("passed"):
                lines.append(
                    f"    all {s.get('pairs_checked', 0)} in-range pairs pass; "
                    f"worst ratio {s.get('worst_ratio')} at pair {s.get('worst_pair')}"
                )
            else:
                for x, y, q in s.get("ratio_violations", [])[:5]:
                    lines.append(
                        f"    ratio violation: pair ({x},{y}) has ratio {q}"
                    )
                for x, d in s.get("support_violations", [])[:5]:
                    lines.append(
                        f"    support violation: index {x} reaches radius {d}"
                    )
                if s.get("flat_violations"):
                    lines.append(
                        f"    not 0,1-valued at indices {s['flat_violations'][:10]}"
                    )
        elif kind == "flatten":
            lines.append(
                f"    worst ratio {s.get('worst_ratio_before')} -> "
                f"{s.get('worst_ratio_after')} in <= {s.get('max_steps')} steps; "
                f"new support bound {s.get('new_S')}"
            )
            for x, t in sorted((s.get("escaped_traces") or {}).items()):
                r = parse_rational(s.get("r", "1/1"))
                S = parse_rational(s.get("input_S", "0/1"))
                margin = r * t["bound"] + S
                lines.append(
                    f"    escaped at index {x} after {t['steps']} steps; a "
                    f"window margin of {format_rational(margin)} around the "
                    "index is always sufficient"
                )
        elif kind == "box":
            lines.append(
                f"    catch-all boxes: j <= {s.get('J')}; deep-box equalities "
                f"{'hold' if s.get('equalities_hold') else 'FAIL'}; worst "
                f"ratio {s.get('worst_ratio')}"
            )
        elif kind == "transport":
            lines.append(
                f"    new support bound {s.get('new_S')}, target epsilon "
                f"{s.get('epsilon')}"
            )
    return "\n".join(lines) + "\n"
