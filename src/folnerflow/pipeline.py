"""Config-driven pipeline runner with JSON artifacts.

A run is an ordered list of named stages; each stage reads the live
objects of earlier stages by name, writes its own artifacts to the output
directory, and contributes a summary to the final run report. Randomized
stages draw from a RNG seeded by (run seed, stage name), so a fixed
config and seed reproduce every byte of every artifact.

`STAGES` is the one table of stage kinds. Each entry gives the kind's
inputs (role -> the producer kinds that role accepts), its run function
`(inputs, params, rng) -> (object, {file suffix: JSON doc}, summary)`,
its `explain` blurb, its failure rule (summary -> whether the stage
failed) and its params with their defaults; doc suffix `s` lands in
`<stage name><s>.json`. `PipelineConfig.from_json` reads a config whole
against it before any stage runs. A stage's live object is what loading
its artifact returns (the `rips` object is `(RipsGraph, frontier)`, as
`rips_from_json` gives it). Every CLI command but `run` and `explain` is
one stage kind: it takes the kind's roles and params as flags, defaulted as
here, calls the same run function and exits 1 where the failure rule holds.

The run passes iff no stage fails its rule; `explain` renders the stored
report for humans.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, FolnerflowError, error_message
from .jsonio import (Entries, Exact, Form, List, Obj, Rational, Tagged, Tuple, dump_json,
                     format_rational, parse_ids, parse_rational, read)


class Stage(namedtuple("Stage", "name kind params inputs")):
    __slots__ = ()


class PipelineConfig(namedtuple("PipelineConfig", "stages seed", defaults=(0,))):
    __slots__ = ()

    @classmethod
    def from_json(cls, doc) -> "PipelineConfig":
        """The config its form `CONFIG` reads; ConfigError naming the stage for
        a duplicate name, or an input naming no earlier stage of a kind its
        role accepts."""
        d = read(doc, CONFIG, "config")
        kinds = {}  # name -> kind of each earlier stage
        for s in d["stages"]:
            name, accepts = s["name"], STAGES[s["kind"]].inputs
            if name in kinds:
                raise ConfigError(f"duplicate stage name {name!r}")
            for role, ref in s["inputs"].items():
                if ref not in kinds:
                    raise ConfigError(f"stage {name!r} references {ref!r} as its {role}, "
                                      "but no earlier stage has that name")
                if (kind := kinds[ref]) not in accepts[role]:
                    raise ConfigError(f"stage {name!r}: input {ref!r} is a {kind} stage, "
                                      f"expected one of {accepts[role]}")
            kinds[name] = s["kind"]
        return cls(stages=[Stage(**s) for s in d["stages"]], seed=d["seed"])


# -- stage kinds: run functions (inputs, params, rng) -> (object, docs, summary)
# Each imports the modules it runs, so a CLI child (and `explain`) loads no
# more than its own stage needs.


def _chain_family(fam, kind):
    from .chains import IndexedFamily
    if not isinstance(fam, IndexedFamily):
        raise ConfigError(f"{kind} needs a weighted chain family, not a multiset family or "
                          "a bare space (use family_from_multisets or transport)")
    return fam


def _rationals(p, key):  # a list param, or None for null
    return p[key] if p[key] is None else read(p[key], List(Rational()), key)


def _generate(inputs, p, rng):
    from .space import generate, space_to_json
    space = generate(p["spec"])
    return space, {"": space_to_json(space)}, {"points": space.n, "frontier": len(space.frontier)}


def _rips(inputs, p, rng):
    from .rips import build_rips, check_coarsely_unbounded, rips_to_json
    space = inputs["space"]
    rg = build_rips(space, parse_rational(p["r"]))
    reach = check_coarsely_unbounded(space, rg)
    return (rg, space.frontier), {"": rips_to_json(space, rg)}, {
        "components": len(rg.components), "edges": rg.edge_count(),
        "all_components_reach_frontier": reach.passed}


def _flow(inputs, p, rng):
    from .rips import build_flow, flow_to_json
    rg, frontier = inputs["rips"]
    flow = build_flow(frontier, rg)
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
    # an escape is a verdict on the window: collected, it fails the stage's rule
    out, report = flatten_family(fam, inputs["flow"], "collect")
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
    fam, M = inputs["family"], p["M"]
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
    model = build_box_space(p["m"], p["boxes"], _rationals(p, "spacing"))
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
    report = verify_family(fam, require_flat=p["require_flat"])
    summary = report.to_json()
    return report, {".report": summary}, summary


def _info(inputs, p, rng):
    from .space import growth_profile
    space, radii = inputs["space"], _rationals(p, "radii")
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
    R = p["target_R"]  # the map was read with the config (`_PARAMS`) or its file
    out = pushforward_injective(_chain_family(inputs["family"], "push"), p["map"],
                                inputs["target"], target_R=None if R is None else parse_rational(R))
    return out, {"": family_to_json(out)}, {
        "indices": len(out.chains), "new_S": format_rational(out.params.S)}


def _project(inputs, p, rng):
    from .chains import family_to_json
    from .constructions import project_family
    fam = _chain_family(inputs["family"], "project")
    out = project_family(fam.space, fam)
    return out, {"": family_to_json(out)}, {
        "indices": len(out.chains), "epsilon": format_rational(out.params.epsilon)}


# the family kinds, each with the params it reads beside the family stage's own
_FAMILY_PARAMS = {"tent": ("width",), "ball": ("radius",), "singletons": (), "translates": ("F",),
                  "random_multiset": ("M", "size", "spread")}


def _make_family(space, p, rng):
    from . import families
    kind, core = p["kind"], p["core"]
    R, eps = parse_rational(p["R"]), parse_rational(p["epsilon"])
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
    M, size = (read(p[key], Exact(int, 0), f"random_multiset {key}") for key in ("M", "size"))
    return families.random_multiset_family(
        space, rng, M=M, size=size,
        spread=parse_rational(p["spread"]), R=R, epsilon=eps, core=core,
    )


def _resolve_core(space, core):
    """A core is a list of point ids of the window, or {"coords": [lo, hi]}
    on grids, lo and hi ints; an unknown id raises KeyError naming it."""
    if type(core) is dict:
        lo, hi = read(core, Obj({"coords": Tuple(Exact(int), Exact(int))}), "core")["coords"]
        index = space.meta.get("coord_index")
        if index is None:
            raise ConfigError("coordinate cores need a grid window")
        return [pid for c, pid in sorted(index.items()) if all(lo <= v <= hi for v in c)]
    for x in read(core, List(Exact(int)), "core"):
        space._check_point(x)
    return core


class StageKind(namedtuple("StageKind", [
        "inputs",  # role -> the producer kinds it accepts
        "run",  # (inputs, params, rng) -> (object, {file suffix: JSON doc}, summary)
        "blurb",  # what `explain` says the stage does
        "fails",  # whether the stage failed: run fails, CLI exits 1
        "params"],  # param -> its default (...: the config must name it); no other is read
        defaults=(lambda summary: False, {}))):
    __slots__ = ()


_SPACE = ("generate", "box")
_FAMILY = ("family", "flatten", "transport", "box")
STAGES = {
    "generate": StageKind({}, _generate, "window construction (exact metric, frontier marking)",
                          params={"spec": ...}),
    "info": StageKind({"space": _SPACE}, _info, "point count, frontier and largest interior "
                      "ball per radius", params={"radii": None}),
    "rips": StageKind({"space": _SPACE}, _rips, "scale-r neighbourhood graph and component split",
                      params={"r": "1/1"}),
    "flow": StageKind({"rips": ("rips",)}, _flow,
                      "exit flow: one tree edge per point toward a frontier sink"),
    "family": StageKind({"space": _SPACE}, _family, "family construction", params={
        "kind": ..., "R": "1/1", "epsilon": "1/4", "core": None}),  # and `_FAMILY_PARAMS`
    "flatten": StageKind({"family": ("family", "transport"), "flow": ("flow",)}, _flatten,
                         "tower shifting to a 0,1-valued family; checks that the worst "
                         "symmetric-difference/intersection ratio never grows",
                         lambda summary: bool(summary["escaped_indices"])),
    "tails": StageKind({"space": ("generate",)}, _tails,
                       "escape-sequence cover with bounded per-point multiplicity"),
    "verify_tails": StageKind({"space": _SPACE, "tails": ("tails",)}, _verify_tails,
                              "tail cover check: each tail steps at most r to the frontier, "
                              "and no point lies on more than K tails",
                              lambda summary: not summary["passed"]),
    "transport": StageKind({"space": _SPACE, "tails": ("tails",), "family": ("family",)},
                           _transport, "level-to-space transport along tails; ratios can "
                           "grow by at most the cover multiplicity K", params={"M": None}),
    "boundary": StageKind({"space": _SPACE}, _boundary, "R-boundary of a point set and its "
                          "size per point", params={"U": ..., "R": ...}),
    "search": StageKind({"space": _SPACE}, _search, "Folner search: the first interior ball "
                        "whose R-boundary is at most epsilon times its size",
                        lambda summary: not summary["found"], params={"R": ..., "epsilon": ...}),
    "push": StageKind({"family": _FAMILY, "target": _SPACE}, _push,
                      "pushforward along an injective map into a denser target window",
                      params={"map": ..., "target_R": None}),
    "project": StageKind({"family": _FAMILY}, _project, "projection from an interval "
                         "product; epsilon scales by the number of levels"),
    "box": StageKind({}, _box, "translate family on cyclic quotients; deep boxes must "
                     "reproduce integer translate counting exactly",
                     lambda summary: summary.get("equalities_hold") is False,
                     params={"m": ..., "boxes": ..., "spacing": None, "F": None, "R": "1/1",
                             "epsilon": "1/4"}),
    "verify": StageKind({"family": _FAMILY}, _verify,
                        "ratio bound at range R, support-radius bound S, and "
                        "(optionally) 0,1-valuedness", lambda summary: not summary["passed"],
                        params={"require_flat": False}),
}


class _Stem(Form):
    what = "a plain file stem"

    def ok(self, v, known):  # a name that `<name>.json` keeps inside the output directory
        return type(v) is str and v not in ("", ".", "..") and not {"/", "\\", "\0"} & set(v)


def _stage(row) -> Obj:
    """A stage of kind `row`: its name, its params with their defaults (a
    family stage's as its family kind reads them) and its input roles."""
    params = Obj({key: (_PARAMS.get(key, Form()), default)
                  for key, default in row.params.items() if key != "kind"})
    if row is STAGES["family"]:
        params = Tagged("kind", {kind: Obj({**params.fields, **dict.fromkeys(more, Form())})
                                 for kind, more in _FAMILY_PARAMS.items()})
    return Obj({"name": _Stem(), "params": (params, {}),
                "inputs": (Obj(dict.fromkeys(row.inputs, Exact(str))), {})})


_PARAMS = {"map": Entries(Exact(int), Exact(int))}  # the params read before any stage runs
CONFIG = Obj({"stages": List(Tagged("kind", {kind: _stage(row) for kind, row in STAGES.items()})),
              "seed": (Exact(int), 0)})
MAP_FILE = Obj({"f": _PARAMS["map"]})  # a push stage's map, each domain point once


def run(config: PipelineConfig, out_dir, *, seed=None) -> dict:
    """Execute the stages of a config `PipelineConfig.from_json` has read;
    returns the run report (also written to <out_dir>/report.json). Raises
    ConfigError for any input error a stage raises (a FolnerflowError,
    ValueError or KeyError, formatted as the CLI formats it), prefixed with
    the stage name; an InternalInvariantError passes as it is, and a flatten
    escape is no error but a verdict the flatten stage reports."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.seed if seed is None else seed
    done = {}  # name -> live object
    summaries = []
    failures = []
    for stage in config.stages:
        spec = STAGES[stage.kind]
        # a box stage's object is its family, which carries the space
        inputs = {role: getattr(done[ref], "space", done[ref]) if role in ("space", "target")
                  else done[ref] for role, ref in stage.inputs.items()}
        rng = random.Random(f"{seed}/{stage.name}")
        try:
            obj, docs, summary = spec.run(inputs, stage.params, rng)
        except (FolnerflowError, ValueError, KeyError) as e:
            raise ConfigError(f"stage {stage.name!r}: {error_message(e)}") from e
        for suffix, doc in docs.items():
            dump_json(doc, out / f"{stage.name}{suffix}.json")
        done[stage.name] = obj
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
    lines = [f"run verdict: {'PASS' if report.get('passed') else 'FAIL'} "
             f"(seed {report.get('seed')})"]
    for s in report["stages"]:
        kind, get = s.get("kind", "?"), s.get
        lines.append(f"- {get('name')}: {STAGES[kind].blurb if kind in STAGES else kind}")
        if kind == "verify" and get("passed"):
            lines.append(f"    all {get('pairs_checked')} in-range pairs pass; worst ratio "
                         f"{get('worst_ratio')} at pair {get('worst_pair')}"
                         if get("pairs_checked") else "    no in-range pairs")
        elif kind == "verify":
            lines += [f"    ratio violation: pair ({x},{y}) has ratio {q}"
                      for x, y, q in get("ratio_violations", [])[:5]]
            lines += [f"    support violation: index {x} reaches radius {d}"
                      for x, d in get("support_violations", [])[:5]]
            if get("flat_violations"):
                lines.append(f"    not 0,1-valued at indices {s['flat_violations'][:10]}")
        elif kind == "flatten":
            worst = (f"worst ratio {get('worst_ratio_before')} -> {get('worst_ratio_after')}"
                     if get("worst_ratio_before") is not None else "no in-range pairs; flattened")
            lines.append(f"    {worst} in <= {get('max_steps')} steps; "
                         f"new support bound {get('new_S')}")
            traces = get("escaped_traces") or {}
            r, S = parse_rational(get("r", "1/1")), parse_rational(get("input_S", "0/1"))
            lines += [f"    escaped at index {x} after {traces[x]['steps']} steps; a window "
                      f"margin of {format_rational(r * traces[x]['bound'] + S)} around the "
                      "index is always sufficient"
                      for x in sorted(traces, key=int)]  # JSON keys are strings: "10" < "5"
        elif kind == "box" and "J" in s:  # a box space alone builds no family
            lines.append(f"    catch-all boxes: j <= {get('J')}; deep-box equalities "
                         f"{'hold' if get('equalities_hold') else 'FAIL'}; "
                         f"worst ratio {get('worst_ratio')}")
        elif kind == "transport":
            lines.append(f"    new support bound {get('new_S')}, target epsilon {get('epsilon')}")
    return "\n".join(lines) + "\n"
