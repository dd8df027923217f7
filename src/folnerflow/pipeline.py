"""Config-driven pipeline runner with JSON artifacts.

A run is an ordered list of named stages; each stage reads the artifacts
of earlier stages by name, writes its own artifact to the output
directory, and contributes a summary to the final run report. Randomized
stages draw from a RNG seeded by (run seed, stage name), so a fixed
config and seed reproduce every byte of every artifact.

Stage kinds:

  generate   params: spec (generator descriptor)            -> space
  rips       inputs: space; params: r                       -> rips graph
  flow       inputs: rips                                   -> flow
  family     inputs: space; params: kind + shape params     -> family
  flatten    inputs: family, flow; params: on_escape        -> flat family
  tails      inputs: space                                  -> tail cover
  transport  inputs: family (multiset), tails, space        -> flat family
  box        params: m, boxes, F, R, epsilon                -> space + family
  verify     inputs: family [, space]; params: require_flat -> verdict

The run passes iff every verify stage passes and no flatten/transport
reported escapes; `explain` renders the stored report for humans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from . import constructions, families
from . import rips as rips_mod
from . import tails as tails_mod
from .flatten import flatten_family
from .chains import (
    MultisetFamily,
    family_to_json,
    multiset_family_to_json,
    verify_family,
)
from .errors import ConfigError, FolnerflowError, PipelineStageError
from .jsonio import dump_json, format_rational, load_json, parse_rational
from .space import generate, space_to_json

STAGE_KINDS = (
    "generate", "rips", "flow", "family", "flatten", "tails", "transport",
    "box", "verify",
)


@dataclass
class Stage:
    name: str
    kind: str
    params: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


@dataclass
class PipelineConfig:
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
            if stage.kind not in STAGE_KINDS:
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


def load_config(path) -> PipelineConfig:
    return PipelineConfig.from_json(load_json(path))


class _RunState:
    def __init__(self, out_dir, seed):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.objects = {}   # name -> live object(s)
        self.kinds = {}     # name -> stage kind

    def artifact_path(self, name):
        return self.out / f"{name}.json"

    def require(self, stage, role, want_kinds):
        ref = stage.inputs.get(role)
        if ref is None:
            raise ConfigError(f"stage {stage.name!r} needs an input {role!r}")
        if self.kinds.get(ref) not in want_kinds:
            raise ConfigError(
                f"stage {stage.name!r}: input {ref!r} is a "
                f"{self.kinds.get(ref)} stage, expected one of {want_kinds}"
            )
        return self.objects[ref]


def _as_space(obj):
    return obj[0] if isinstance(obj, tuple) else obj


def _run_stage(stage: Stage, state: _RunState):
    p = stage.params
    rng = random.Random(f"{state.seed}/{stage.name}")
    summary = {"name": stage.name, "kind": stage.kind}

    if stage.kind == "generate":
        space = generate(p.get("spec"))
        dump_json(space_to_json(space), state.artifact_path(stage.name))
        state.objects[stage.name] = space
        summary.update(points=space.n, frontier=len(space.frontier))

    elif stage.kind == "rips":
        space = _as_space(state.require(stage, "space", ("generate", "box")))
        r = parse_rational(p.get("r", "1/1"))
        rg = rips_mod.build_rips(space, r)
        dump_json(rips_mod.rips_to_json(space, rg), state.artifact_path(stage.name))
        state.objects[stage.name] = (space, rg)
        reach = rips_mod.check_coarsely_unbounded(space, rg)
        summary.update(
            components=len(rg.components), edges=rg.edge_count(),
            all_components_reach_frontier=reach.passed,
        )

    elif stage.kind == "flow":
        space, rg = state.require(stage, "rips", ("rips",))
        flow = rips_mod.build_flow(space, rg)
        dump_json(rips_mod.flow_to_json(flow), state.artifact_path(stage.name))
        state.objects[stage.name] = flow
        summary.update(sinks=sorted(flow.sinks))

    elif stage.kind == "family":
        space = _as_space(state.require(stage, "space", ("generate", "box")))
        fam = _make_family(space, p, rng)
        doc = (multiset_family_to_json(fam) if isinstance(fam, MultisetFamily)
               else family_to_json(fam))
        dump_json(doc, state.artifact_path(stage.name))
        state.objects[stage.name] = (space, fam)
        summary.update(indices=len(fam.sets if isinstance(fam, MultisetFamily) else fam.chains))

    elif stage.kind == "flatten":
        space, fam = state.require(stage, "family", ("family", "transport"))
        flow = state.require(stage, "flow", ("flow",))
        if isinstance(fam, MultisetFamily):
            raise ConfigError(
                f"stage {stage.name!r}: flatten needs a weighted chain family, "
                "not a multiset family (use family_from_multisets or transport)"
            )
        out_fam, report = flatten_family(fam, flow, on_escape=p.get("on_escape", "raise"))
        dump_json(family_to_json(out_fam), state.artifact_path(stage.name))
        dump_json(report.to_json(), state.out / f"{stage.name}.report.json")
        state.objects[stage.name] = (space, out_fam)
        summary.update(report.to_json())

    elif stage.kind == "tails":
        space = state.require(stage, "space", ("generate",))
        cover = tails_mod.build_tree_tails(space)
        dump_json(tails_mod.cover_to_json(cover), state.artifact_path(stage.name))
        state.objects[stage.name] = cover
        summary.update(K=cover.K, r=format_rational(cover.r))

    elif stage.kind == "transport":
        space, fam = state.require(stage, "family", ("family",))
        cover = state.require(stage, "tails", ("tails",))
        if not isinstance(fam, MultisetFamily):
            raise ConfigError(
                f"stage {stage.name!r}: transport needs a multiset family"
            )
        out_fam = tails_mod.tail_transport(fam, cover, space)
        dump_json(family_to_json(out_fam), state.artifact_path(stage.name))
        state.objects[stage.name] = (space, out_fam)
        summary.update(
            indices=len(out_fam.chains),
            new_S=format_rational(out_fam.params.S),
            epsilon=format_rational(out_fam.params.epsilon),
        )

    elif stage.kind == "box":
        model = constructions.build_box_space(p["m"], p["boxes"])
        F = _parse_range(p["F"])
        fam, report = constructions.box_family(
            model, F, parse_rational(p["R"]), parse_rational(p["epsilon"]),
        )
        dump_json(space_to_json(model.space), state.out / f"{stage.name}.space.json")
        dump_json(family_to_json(fam), state.artifact_path(stage.name))
        dump_json(report.to_json(), state.out / f"{stage.name}.report.json")
        state.objects[stage.name] = (model.space, fam, report)
        summary.update(report.to_json())

    elif stage.kind == "verify":
        obj = state.require(
            stage, "family", ("family", "flatten", "transport", "box"),
        )
        space, fam = obj[0], obj[1]
        report = verify_family(fam, require_flat=p.get("require_flat", False))
        dump_json(report.to_json(), state.out / f"{stage.name}.report.json")
        state.objects[stage.name] = report
        summary.update(report.to_json())

    else:  # unreachable; kinds validated at load
        raise ConfigError(f"unknown stage kind {stage.kind!r}")

    return summary


def _parse_range(spec):
    """Accept [a, b, c], "a..b", or a single int as a set of integers."""
    if isinstance(spec, str) and ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    if isinstance(spec, int):
        return [spec]
    return [int(v) for v in spec]


def _make_family(space, p, rng):
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
        F = [tuple(f) if isinstance(f, list) else f for f in _parse_range(p["F"])]
        return constructions.group_foelner_family(space, F, R, eps, core=core)
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
    return [int(x) for x in core]


def run(config: PipelineConfig, out_dir, *, seed=None) -> dict:
    """Execute all stages; returns the run report (also written to
    <out_dir>/report.json). Raises ConfigError for bad configs and lets
    stage errors propagate, prefixed with the stage name."""
    state = _RunState(out_dir, config.seed if seed is None else seed)
    summaries = []
    failures = []
    for i, stage in enumerate(config.stages):
        try:
            summary = _run_stage(stage, state)
        except ConfigError:
            raise
        except FolnerflowError as e:
            raise PipelineStageError(stage.name, i, e) from e
        state.kinds[stage.name] = stage.kind
        summaries.append(summary)
        if stage.kind == "verify" and not summary.get("passed", False):
            failures.append(stage.name)
        if stage.kind in ("flatten",) and summary.get("escaped_indices"):
            failures.append(stage.name)

    report = {
        "seed": state.seed,
        "stages": summaries,
        "failed_stages": failures,
        "passed": not failures,
    }
    dump_json(report, state.out / "report.json")
    return report


# -- explain -----------------------------------------------------------------

_KIND_BLURBS = {
    "generate": "window construction (exact metric, frontier marking)",
    "rips": "scale-r neighbourhood graph and component split",
    "flow": "exit flow: one tree edge per point toward a frontier sink",
    "family": "family construction",
    "flatten": "tower shifting to a 0,1-valued family; checks that the "
               "worst symmetric-difference/intersection ratio never grows",
    "tails": "escape-sequence cover with bounded per-point multiplicity",
    "transport": "level-to-space transport along tails; ratios can grow by "
                 "at most the cover multiplicity K",
    "box": "translate family on cyclic quotients; deep boxes must reproduce "
           "integer translate counting exactly",
    "verify": "ratio bound at range R, support-radius bound S, and "
              "(optionally) 0,1-valuedness",
}


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
        lines.append(f"- {s.get('name')}: {_KIND_BLURBS.get(kind, kind)}")
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
