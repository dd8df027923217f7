"""Command-line interface.

Subcommand groups mirror the library: space, rips, flow, family, flatten,
tails, amen, coarse, box, plus the pipeline commands run/explain. All
artifacts are JSON with rationals as "p/q" strings.

Exit codes: 0 success / all checks pass; 1 a verification failed;
2 configuration or input problem (including windows too small for the
requested run); 3 internal invariant violation (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import constructions, pipeline
from . import rips as rips_mod
from . import tails as tails_mod
from .chains import family_to_json, load_family
from .errors import ConfigError, FolnerflowError, InternalInvariantError
from .jsonio import dump_json, format_rational, load_json, parse_ids, parse_rational
from .space import growth_profile, load_space

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _out_path(args, default_name):
    if args.out:
        return args.out
    base = os.environ.get("FOLNERFLOW_OUT", ".")
    return os.path.join(base, default_name)


def _emit(doc, path=None):
    text = dump_json(doc, path)
    if path is None:
        sys.stdout.write(text)
    else:
        print(path)


def _stage(kind, inputs, **params):
    """Run one pipeline stage kind on loaded inputs: (object, docs, summary)."""
    return pipeline.STAGES[kind].run(inputs, params, None)


# -- handlers ----------------------------------------------------------------


def cmd_space_gen(args):
    spec = json.loads(args.spec) if args.spec.lstrip().startswith("{") else load_json(args.spec)
    _, docs, _ = _stage("generate", {}, spec=spec)
    _emit(docs[""], _out_path(args, "space.json"))
    return EXIT_OK


def cmd_space_info(args):
    space = load_space(args.space)
    radii = [parse_rational(r) for r in args.radii.split(",")] if args.radii else []
    doc = {
        "label": space.label,
        "points": space.n,
        "frontier": sorted(space.frontier),
        "growth": growth_profile(space, radii).to_json() if radii else {},
    }
    _emit(doc)
    return EXIT_OK


def cmd_rips_build(args):
    _, docs, _ = _stage("rips", {"space": load_space(args.space)}, r=args.r)
    _emit(docs[""], _out_path(args, "rips.json"))
    return EXIT_OK


def cmd_flow_build(args):
    _, docs, _ = _stage("flow", {"rips": rips_mod.load_rips(args.rips)})
    _emit(docs[""], _out_path(args, "flow.json"))
    return EXIT_OK


def cmd_family_verify(args):
    space = load_space(args.space)
    report, docs, _ = _stage("verify", {"family": load_family(args.family, space)},
                             require_flat=args.flat)
    _emit(docs[".report"])
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_flatten_run(args):
    space = load_space(args.space)
    inputs = {"family": load_family(args.family, space), "flow": rips_mod.load_flow(args.flow)}
    _, docs, summary = _stage("flatten", inputs, on_escape=args.on_escape)
    dump_json(docs[""], args.out)
    _emit(docs[".report"], args.report)
    return EXIT_VERIFY_FAILED if summary["escaped_indices"] else EXIT_OK


def cmd_tails_build(args):
    _, docs, _ = _stage("tails", {"space": load_space(args.space)})
    _emit(docs[""], _out_path(args, "cover.json"))
    return EXIT_OK


def cmd_tails_verify(args):
    space = load_space(args.space)
    cover = tails_mod.load_cover(args.cover)
    report = tails_mod.verify_tail_cover(cover, space)
    _emit(report.to_json())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_tails_transport(args):
    space = load_space(args.space)
    fam = load_family(args.family)
    cover = tails_mod.load_cover(args.cover)
    if args.M is not None and args.M != fam.M:
        raise ConfigError(
            f"--M {args.M} does not match the family's height bound {fam.M}"
        )
    _, docs, _ = _stage("transport", {"family": fam, "tails": cover, "space": space})
    _emit(docs[""], _out_path(args, "transported.json"))
    return EXIT_OK


def cmd_amen_boundary(args):
    space = load_space(args.space)
    U = parse_ids(args.U)
    b = constructions.boundary(space, U, parse_rational(args.R))
    ratio = None
    if U:
        ratio = format_rational(Fraction(len(b), len(U)))
    _emit({"boundary": sorted(b), "size": len(b), "ratio": ratio})
    return EXIT_OK


def cmd_amen_search(args):
    space = load_space(args.space)
    U = constructions.foelner_search(
        space, parse_rational(args.R), parse_rational(args.eps),
    )
    if U is None:
        _emit({"found": False, "witness": None})
        return EXIT_VERIFY_FAILED
    b = constructions.boundary(space, U, parse_rational(args.R))
    _emit({
        "found": True,
        "witness": sorted(U),
        "size": len(U),
        "boundary_size": len(b),
        "ratio": format_rational(Fraction(len(b), len(U))),
    })
    return EXIT_OK


def cmd_coarse_push(args):
    domain = load_space(args.space)
    target = load_space(args.target)
    fam = load_family(args.family, domain)
    fmap = {x: y for x, y in load_json(args.map)["f"]}
    out_fam = constructions.pushforward_injective(
        fam, fmap, target,
        target_R=parse_rational(args.target_R) if args.target_R else None,
    )
    _emit(family_to_json(out_fam), _out_path(args, "pushed.json"))
    return EXIT_OK


def cmd_coarse_project(args):
    prod = load_space(args.space)
    fam = load_family(args.family, prod)
    out_fam = constructions.project_family(prod, fam)
    _emit(family_to_json(out_fam), _out_path(args, "projected.json"))
    return EXIT_OK


def cmd_box_build(args):
    _, docs, summary = _stage(
        "box", {}, m=args.m, boxes=args.boxes,
        spacing=args.spacing.split(",") if args.spacing else None,
        F=args.F, R=args.R, epsilon=args.eps,
    )
    _emit(docs[".space"], _out_path(args, "boxspace.json"))
    if args.F is None:
        return EXIT_OK
    if args.family_out:
        dump_json(docs[""], args.family_out)
    _emit(docs[".report"], args.report)
    return EXIT_OK if summary["equalities_hold"] else EXIT_VERIFY_FAILED


def cmd_run(args):
    config = pipeline.PipelineConfig.from_json(load_json(args.config))
    report = pipeline.run(config, args.out, seed=args.seed)
    print(pipeline.explain(report), end="")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_explain(args):
    report = load_json(args.report)
    print(pipeline.explain(report), end="")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="folnerflow",
        description="Exact verification toolkit for subset families on metric windows",
    )
    sub = top.add_subparsers(dest="group", required=True)

    def add(group_parser, name, handler, **arg_specs):
        p = group_parser.add_parser(name)
        for flag, kw in arg_specs.items():
            p.add_argument(flag, **kw)
        p.set_defaults(handler=handler)
        return p

    space = sub.add_parser("space").add_subparsers(dest="cmd", required=True)
    add(space, "gen", cmd_space_gen,
        **{"--spec": dict(required=True, help="generator descriptor file or inline JSON"),
           "--out": dict(default=None)})
    add(space, "info", cmd_space_info,
        **{"--space": dict(required=True), "--radii": dict(default="")})

    rips = sub.add_parser("rips").add_subparsers(dest="cmd", required=True)
    add(rips, "build", cmd_rips_build,
        **{"--space": dict(required=True), "--r": dict(required=True),
           "--out": dict(default=None)})

    flow = sub.add_parser("flow").add_subparsers(dest="cmd", required=True)
    add(flow, "build", cmd_flow_build,
        **{"--rips": dict(required=True), "--out": dict(default=None)})

    family = sub.add_parser("family").add_subparsers(dest="cmd", required=True)
    add(family, "verify", cmd_family_verify,
        **{"--family": dict(required=True), "--space": dict(required=True),
           "--flat": dict(action="store_true")})

    flat = sub.add_parser("flatten").add_subparsers(dest="cmd", required=True)
    add(flat, "run", cmd_flatten_run,
        **{"--family": dict(required=True), "--flow": dict(required=True),
           "--space": dict(required=True), "--out": dict(required=True),
           "--report": dict(default=None),
           "--on-escape": dict(dest="on_escape", default="collect",
                               choices=("raise", "collect"))})

    tails = sub.add_parser("tails").add_subparsers(dest="cmd", required=True)
    add(tails, "build", cmd_tails_build,
        **{"--space": dict(required=True), "--out": dict(default=None)})
    add(tails, "verify", cmd_tails_verify,
        **{"--space": dict(required=True), "--cover": dict(required=True)})
    add(tails, "transport", cmd_tails_transport,
        **{"--space": dict(required=True), "--cover": dict(required=True),
           "--family": dict(required=True), "--M": dict(type=int, default=None),
           "--out": dict(default=None)})

    amen = sub.add_parser("amen").add_subparsers(dest="cmd", required=True)
    add(amen, "boundary", cmd_amen_boundary,
        **{"--space": dict(required=True), "--U": dict(required=True),
           "--R": dict(required=True)})
    add(amen, "search", cmd_amen_search,
        **{"--space": dict(required=True), "--R": dict(required=True),
           "--eps": dict(required=True)})

    coarse = sub.add_parser("coarse").add_subparsers(dest="cmd", required=True)
    add(coarse, "push", cmd_coarse_push,
        **{"--family": dict(required=True), "--space": dict(required=True),
           "--target": dict(required=True), "--map": dict(required=True),
           "--target-R": dict(dest="target_R", default=None),
           "--out": dict(default=None)})
    add(coarse, "project", cmd_coarse_project,
        **{"--family": dict(required=True), "--space": dict(required=True),
           "--out": dict(default=None)})

    box = sub.add_parser("box").add_subparsers(dest="cmd", required=True)
    add(box, "build", cmd_box_build,
        **{"--m": dict(type=int, required=True),
           "--boxes": dict(type=int, required=True),
           "--spacing": dict(default=None),
           "--F": dict(default=None), "--R": dict(default="1/1"),
           "--eps": dict(default="1/4"),
           "--out": dict(default=None),
           "--family-out": dict(dest="family_out", default=None),
           "--report": dict(default=None)})

    runp = sub.add_parser("run")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", required=True)
    runp.add_argument("--seed", type=int, default=None)
    runp.set_defaults(handler=cmd_run)

    expl = sub.add_parser("explain")
    expl.add_argument("report", nargs="?", default=None)
    expl.add_argument("--report", dest="report_flag", default=None)
    expl.set_defaults(handler=cmd_explain)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "report_flag", None) is not None:
        args.report = args.report_flag
    if getattr(args, "handler", None) is cmd_explain and args.report is None:
        parser.error("explain needs a report path")
    try:
        return args.handler(args)
    except InternalInvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ConfigError, FolnerflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
