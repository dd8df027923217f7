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

from .errors import ConfigError, FolnerflowError, InternalInvariantError
from .jsonio import dump_json, format_rational, load_json, parse_ids, parse_rational

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
    from .pipeline import STAGES
    return STAGES[kind].run(inputs, params, None)


# -- handlers ----------------------------------------------------------------
# Each imports what it calls, so a child loads only its command's modules.


def cmd_space_gen(args):
    spec = json.loads(args.spec) if args.spec.lstrip().startswith("{") else load_json(args.spec)
    _, docs, _ = _stage("generate", {}, spec=spec)
    _emit(docs[""], _out_path(args, "space.json"))
    return EXIT_OK


def cmd_space_info(args):
    from .space import growth_profile, load_space
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
    from .space import load_space
    _, docs, _ = _stage("rips", {"space": load_space(args.space)}, r=args.r)
    _emit(docs[""], _out_path(args, "rips.json"))
    return EXIT_OK


def cmd_flow_build(args):
    from .rips import load_rips
    _, docs, _ = _stage("flow", {"rips": load_rips(args.rips)})
    _emit(docs[""], _out_path(args, "flow.json"))
    return EXIT_OK


def cmd_family_verify(args):
    from .chains import load_family
    from .space import load_space
    space = load_space(args.space)
    report, docs, _ = _stage("verify", {"family": load_family(args.family, space)},
                             require_flat=args.flat)
    _emit(docs[".report"])
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_flatten_run(args):
    from .chains import load_family
    from .rips import load_flow
    from .space import load_space
    space = load_space(args.space)
    inputs = {"family": load_family(args.family, space), "flow": load_flow(args.flow)}
    _, docs, summary = _stage("flatten", inputs, on_escape=args.on_escape)
    dump_json(docs[""], args.out)
    _emit(docs[".report"], args.report)
    return EXIT_VERIFY_FAILED if summary["escaped_indices"] else EXIT_OK


def cmd_tails_build(args):
    from .space import load_space
    _, docs, _ = _stage("tails", {"space": load_space(args.space)})
    _emit(docs[""], _out_path(args, "cover.json"))
    return EXIT_OK


def cmd_tails_verify(args):
    from .space import load_space
    from .tails import load_cover, verify_tail_cover
    space = load_space(args.space)
    cover = load_cover(args.cover)
    report = verify_tail_cover(cover, space)
    _emit(report.to_json())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_tails_transport(args):
    from .chains import load_family
    from .space import load_space
    from .tails import load_cover
    space = load_space(args.space)
    fam = load_family(args.family)
    cover = load_cover(args.cover)
    if args.M is not None and args.M != fam.M:
        raise ConfigError(
            f"--M {args.M} does not match the family's height bound {fam.M}"
        )
    _, docs, _ = _stage("transport", {"family": fam, "tails": cover, "space": space})
    _emit(docs[""], _out_path(args, "transported.json"))
    return EXIT_OK


def cmd_amen_boundary(args):
    from .constructions import boundary
    from .space import load_space
    space = load_space(args.space)
    U = parse_ids(args.U)
    b = boundary(space, U, parse_rational(args.R))
    ratio = None
    if U:
        ratio = format_rational(Fraction(len(b), len(U)))
    _emit({"boundary": sorted(b), "size": len(b), "ratio": ratio})
    return EXIT_OK


def cmd_amen_search(args):
    from .constructions import boundary, foelner_search
    from .space import load_space
    space = load_space(args.space)
    U = foelner_search(space, parse_rational(args.R), parse_rational(args.eps))
    if U is None:
        _emit({"found": False, "witness": None})
        return EXIT_VERIFY_FAILED
    b = boundary(space, U, parse_rational(args.R))
    _emit({
        "found": True,
        "witness": sorted(U),
        "size": len(U),
        "boundary_size": len(b),
        "ratio": format_rational(Fraction(len(b), len(U))),
    })
    return EXIT_OK


def cmd_coarse_push(args):
    from .chains import family_to_json, load_family
    from .constructions import pushforward_injective
    from .space import load_space
    domain = load_space(args.space)
    target = load_space(args.target)
    fam = load_family(args.family, domain)
    fmap = {x: y for x, y in load_json(args.map)["f"]}
    out_fam = pushforward_injective(
        fam, fmap, target,
        target_R=parse_rational(args.target_R) if args.target_R else None,
    )
    _emit(family_to_json(out_fam), _out_path(args, "pushed.json"))
    return EXIT_OK


def cmd_coarse_project(args):
    from .chains import family_to_json, load_family
    from .constructions import project_family
    from .space import load_space
    prod = load_space(args.space)
    fam = load_family(args.family, prod)
    out_fam = project_family(prod, fam)
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
    from .pipeline import PipelineConfig, explain, run
    config = PipelineConfig.from_json(load_json(args.config))
    report = run(config, args.out, seed=args.seed)
    print(explain(report), end="")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_explain(args):
    from .pipeline import explain
    report = load_json(args.report)
    print(explain(report), end="")
    return EXIT_OK


# -- parser ------------------------------------------------------------------

_REQ = dict(required=True)
_OPT = dict(default=None)

# group -> {command: (handler, {flag: add_argument keywords})}; `run` and
# `explain` carry their arguments directly: group -> (handler, flags)
_COMMANDS = {
    "space": {
        "gen": (cmd_space_gen, {
            "--spec": dict(required=True, help="generator descriptor file or inline JSON"),
            "--out": _OPT}),
        "info": (cmd_space_info, {"--space": _REQ, "--radii": dict(default="")}),
    },
    "rips": {"build": (cmd_rips_build, {"--space": _REQ, "--r": _REQ, "--out": _OPT})},
    "flow": {"build": (cmd_flow_build, {"--rips": _REQ, "--out": _OPT})},
    "family": {"verify": (cmd_family_verify, {
        "--family": _REQ, "--space": _REQ, "--flat": dict(action="store_true")})},
    "flatten": {"run": (cmd_flatten_run, {
        "--family": _REQ, "--flow": _REQ, "--space": _REQ, "--out": _REQ, "--report": _OPT,
        "--on-escape": dict(dest="on_escape", default="collect", choices=("raise", "collect"))})},
    "tails": {
        "build": (cmd_tails_build, {"--space": _REQ, "--out": _OPT}),
        "verify": (cmd_tails_verify, {"--space": _REQ, "--cover": _REQ}),
        "transport": (cmd_tails_transport, {
            "--space": _REQ, "--cover": _REQ, "--family": _REQ,
            "--M": dict(type=int, default=None), "--out": _OPT}),
    },
    "amen": {
        "boundary": (cmd_amen_boundary, {"--space": _REQ, "--U": _REQ, "--R": _REQ}),
        "search": (cmd_amen_search, {"--space": _REQ, "--R": _REQ, "--eps": _REQ}),
    },
    "coarse": {
        "push": (cmd_coarse_push, {
            "--family": _REQ, "--space": _REQ, "--target": _REQ, "--map": _REQ,
            "--target-R": dict(dest="target_R", default=None), "--out": _OPT}),
        "project": (cmd_coarse_project, {"--family": _REQ, "--space": _REQ, "--out": _OPT}),
    },
    "box": {"build": (cmd_box_build, {
        "--m": dict(type=int, required=True), "--boxes": dict(type=int, required=True),
        "--spacing": _OPT, "--F": _OPT, "--R": dict(default="1/1"),
        "--eps": dict(default="1/4"), "--out": _OPT,
        "--family-out": dict(dest="family_out", default=None), "--report": _OPT})},
    "run": (cmd_run, {"--config": _REQ, "--out": _REQ, "--seed": dict(type=int, default=None)}),
    "explain": (cmd_explain, {"report": dict(nargs="?", default=None),
                              "--report": dict(dest="report_flag", default=None)}),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv. Every group gets its parser, so the top-level
    help and errors list them all; only the group that argv names, the one
    a parse can enter, gets its commands and arguments."""
    top = argparse.ArgumentParser(
        prog="folnerflow",
        description="Exact verification toolkit for subset families on metric windows",
    )
    sub = top.add_subparsers(dest="group", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)

    def fill(parser, handler, flags):
        for flag, kw in flags.items():
            parser.add_argument(flag, **kw)
        parser.set_defaults(handler=handler)

    for group, commands in _COMMANDS.items():
        parser = sub.add_parser(group)
        if group != named:
            continue
        if isinstance(commands, tuple):
            fill(parser, *commands)
        else:
            cmds = parser.add_subparsers(dest="cmd", required=True)
            for name, (handler, flags) in commands.items():
                fill(cmds.add_parser(name), handler, flags)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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
