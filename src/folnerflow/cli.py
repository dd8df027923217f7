"""Command-line interface.

Subcommand groups mirror the library: space, rips, flow, family, flatten,
tails, amen, coarse, box, plus the pipeline commands run/explain. Every
other command is a row of `_COMMANDS` that runs one pipeline stage kind.
All artifacts are JSON with rationals as "p/q" strings.

Exit codes: 0 success / all checks pass; 1 a verification failed (the
stage kind's failure rule holds); 2 configuration or input problem
(including windows too small for the requested run); 3 internal invariant
violation (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from .errors import ConfigError, FolnerflowError, InternalInvariantError
from .jsonio import dump_json, load_json

_lib = lambda module: importlib.import_module(f".{module}", __package__)


def _map_pairs(doc):
    """The "f" list of a map file, which must hold a JSON object."""
    if type(doc) is not dict:
        raise ConfigError(f"the map file must hold a JSON object, got a {type(doc).__name__}")
    return doc.get("f")


# flag name -> loader(value, space), in load order: a file to load, or a comma list
# to split; `space` is the --space a family is read against, except in a stage that
# takes a space (transport's family is a multiset family, which loads without one)
_LOADERS = {
    "spec": lambda s, _: json.loads(s) if s.lstrip().startswith("{") else load_json(s),
    "space": lambda path, _: _lib("space").load_space(path),
    "target": lambda path, _: _lib("space").load_space(path),
    "family": lambda path, space: _lib("chains").load_family(path, space),
    "map": lambda path, _: _map_pairs(load_json(path)),
    "rips": lambda path, _: _lib("rips").rips_from_json(load_json(path)),
    "flow": lambda path, _: _lib("rips").flow_from_json(load_json(path)),
    "tails": lambda path, _: _lib("tails").cover_from_json(load_json(path)),
    **dict.fromkeys(("radii", "spacing"), lambda s, _: s.split(",") if s else None),
}
_NAMES = {"cover": "tails", "eps": "epsilon", "flat": "require_flat"}  # flag -> stage name


def cmd_stage(args):
    """Load the files the row's flags name, run its stage kind, and write
    each doc to the file its row names or to stdout."""
    from .pipeline import STAGES
    stage, outputs = STAGES[args.row[0]], args.row[2]
    values = {_NAMES.get(k, k): v for k, v in vars(args).items()
              if k not in ("group", "cmd", "handler", "row", *(f for f, _ in outputs.values()))}
    reads_family = "space" not in stage.inputs  # so --space serves only to read the family
    for name, load in _LOADERS.items():
        if values.get(name) is not None:
            values[name] = load(values[name], values.get("space") if reads_family else None)
    inputs = {role: values.pop(role) for role in stage.inputs}
    values.pop("space", None)
    _, docs, summary = stage.run(inputs, values, None)
    for suffix, doc in docs.items():
        flag, default = outputs.get(suffix, (None, "-"))
        path = vars(args).get(flag)
        if default not in (None, "-"):
            path = path or os.path.join(os.environ.get("FOLNERFLOW_OUT", "."), default)
        if path is None and default == "-":
            sys.stdout.write(dump_json(doc))
        elif path is not None:
            dump_json(doc, path)
            if default:
                print(path)
    return 1 if stage.fails(summary) else 0


def cmd_run(args):
    from .pipeline import PipelineConfig, explain, run
    config = PipelineConfig.from_json(load_json(args.config))
    report = run(config, args.out, seed=args.seed)
    print(explain(report), end="")
    return 0 if report["passed"] else 1


def cmd_explain(args):
    from .pipeline import explain
    print(explain(load_json(args.report)), end="")
    return 0


# -- parser ------------------------------------------------------------------

_REQ, _OPT = dict(required=True), dict(default=None)
_OUT = lambda name: {"": ("out", name)}  # the doc goes to --out, by default `name`

# group -> {command: (stage kind, {flag: add_argument keywords}, {doc suffix: (file
# flag, default file name; or "-": stdout; or None: only if the flag is given, and
# its path not printed)})}; a doc not listed goes to stdout. `run` and `explain`
# carry (handler, flags).
_COMMANDS = {
    "space": {
        "gen": ("generate", {
            "--spec": dict(required=True, help="generator descriptor file or inline JSON"),
            "--out": _OPT}, _OUT("space.json")),
        "info": ("info", {"--space": _REQ, "--radii": dict(default="")}, {})},
    "rips": {"build": ("rips", {"--space": _REQ, "--r": _REQ, "--out": _OPT}, _OUT("rips.json"))},
    "flow": {"build": ("flow", {"--rips": _REQ, "--out": _OPT}, _OUT("flow.json"))},
    "family": {"verify": ("verify", {
        "--family": _REQ, "--space": _REQ, "--flat": dict(action="store_true")}, {})},
    "flatten": {"run": ("flatten", {
        "--family": _REQ, "--flow": _REQ, "--space": _REQ, "--out": _REQ, "--report": _OPT,
        "--on-escape": dict(dest="on_escape", default="collect", choices=("raise", "collect"))},
        {"": ("out", None), ".report": ("report", "-")})},
    "tails": {
        "build": ("tails", {"--space": _REQ, "--out": _OPT}, _OUT("cover.json")),
        "verify": ("verify_tails", {"--space": _REQ, "--cover": _REQ}, {}),
        "transport": ("transport", {"--space": _REQ, "--cover": _REQ, "--family": _REQ,
                                    "--M": dict(type=int, default=None), "--out": _OPT},
                      _OUT("transported.json"))},
    "amen": {"boundary": ("boundary", {"--space": _REQ, "--U": _REQ, "--R": _REQ}, {}),
             "search": ("search", {"--space": _REQ, "--R": _REQ, "--eps": _REQ}, {})},
    "coarse": {
        "push": ("push", {"--family": _REQ, "--space": _REQ, "--target": _REQ, "--map": _REQ,
                          "--target-R": dict(dest="target_R", default=None), "--out": _OPT},
                 _OUT("pushed.json")),
        "project": ("project", {"--family": _REQ, "--space": _REQ, "--out": _OPT},
                    _OUT("projected.json"))},
    "box": {"build": ("box", {
        "--m": dict(type=int, required=True), "--boxes": dict(type=int, required=True),
        "--spacing": _OPT, "--F": _OPT, "--R": dict(default="1/1"), "--eps": dict(default="1/4"),
        "--out": _OPT, "--family-out": dict(dest="family_out", default=None), "--report": _OPT},
        {".space": ("out", "boxspace.json"), "": ("family_out", None),
         ".report": ("report", "-")})},
    "run": (cmd_run, {"--config": _REQ, "--out": _REQ, "--seed": dict(type=int, default=None)}),
    "explain": (cmd_explain, {"report": dict(nargs="?", default=None),
                              "--report": dict(dest="report_flag", default=None)}),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv. Every group gets its parser, so the top-level
    help and errors list them all; only the group that argv names, the one
    a parse can enter, gets its commands and arguments."""
    top = argparse.ArgumentParser(prog="folnerflow", description="Exact verification "
                                  "toolkit for subset families on metric windows")
    sub = top.add_subparsers(dest="group", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)

    def fill(parser, flags, **defaults):
        for flag, kw in flags.items():
            parser.add_argument(flag, **kw)
        parser.set_defaults(**defaults)

    for group, commands in _COMMANDS.items():
        parser = sub.add_parser(group)
        if group != named:
            continue
        if isinstance(commands, tuple):
            fill(parser, commands[1], handler=commands[0])
        else:
            cmds = parser.add_subparsers(dest="cmd", required=True)
            for name, row in commands.items():
                fill(cmds.add_parser(name), row[1], handler=cmd_stage, row=row)
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
        return 3
    except (FolnerflowError, ValueError, KeyError, OSError) as e:
        # a KeyError's str() is the repr of its message
        print(f"error: {e.args[0] if isinstance(e, KeyError) and e.args else e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
