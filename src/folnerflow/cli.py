"""Command-line interface.

Subcommand groups mirror the library: space, rips, flow, family, flatten,
tails, amen, coarse, box, plus the pipeline commands run/explain. Every
other command is a row of `_COMMANDS` that runs one pipeline stage kind,
with its flags, their required-ness and defaults read from the kind's
`pipeline.STAGES` row. All artifacts are JSON with rationals as "p/q" strings.

Exit codes: 0 success / all checks pass; 1 a verification failed (the
stage kind's failure rule holds, as on a flatten escape); 2 configuration
or input problem (every other error a stage raises, windows too small for
a construction included, and a request too large to build in memory); 3
internal invariant violation (a bug, not bad input).
"""

import gc

if __name__ == "__main__":  # a process that runs one command and exits: see `main`
    gc.disable()

import argparse
import importlib
import json
import sys

from .errors import FolnerflowError, InternalInvariantError, error_message
from .jsonio import dump_json, load_json, read

_lib = lambda module: importlib.import_module(f".{module}", __package__)


# flag name -> loader(value, space), in load order: a file to load, or a comma list
# to split; `space` is the --space a family is read against, except in a stage that
# takes a space (transport's family is a multiset family, which loads without one)
_LOADERS = {
    "spec": lambda s, _: json.loads(s) if s.lstrip().startswith("{") else load_json(s),
    **dict.fromkeys(("space", "target"), lambda path, _: _lib("space").load_space(path)),
    "family": lambda path, space: _lib("chains").load_family(path, space),
    "map": lambda path, _: read(load_json(path), _lib("pipeline").MAP_FILE, "map file")["f"],
    "rips": lambda path, _: _lib("rips").rips_from_json(load_json(path)),
    "flow": lambda path, _: _lib("rips").flow_from_json(load_json(path)),
    "tails": lambda path, _: _lib("tails").cover_from_json(load_json(path)),
    **dict.fromkeys(("radii", "spacing"), lambda s, _: s.split(",") if s else None),
}
_NAMES = {"cover": "tails", "eps": "epsilon", "flat": "require_flat"}  # flag -> stage name


def cmd_stage(args):
    """Load the files the command's flags name, run its stage kind, and
    write each doc to the file its row names or to stdout."""
    from .pipeline import STAGES
    stage, outputs = STAGES[args.row[0]], args.row[1]
    values = {_NAMES.get(k, k): v for k, v in vars(args).items()}
    reads_family = "space" not in stage.inputs  # so --space serves only to read the family
    for name, load in _LOADERS.items():
        if values.get(name) is not None:
            values[name] = load(values[name], values.get("space") if reads_family else None)
    _, docs, summary = stage.run({role: values[role] for role in stage.inputs},
                                 {key: values[key] for key in stage.params}, None)
    for suffix, doc in docs.items():
        flag, default = outputs.get(suffix, (None, "-"))
        path = vars(args).get(flag)
        if default not in (None, "-", ...):
            path = path or f"./{default}"
        if path is None and default == "-":
            sys.stdout.write(dump_json(doc))
        elif path is not None:
            dump_json(doc, path)
            if default not in (None, ...):
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

_OUT = lambda name: {"": ("out", name)}  # the doc goes to --out, by default `name`

# group -> {command: (stage kind, {doc suffix: (file flag, default file name; or "-":
# stdout; or None: only if the flag is given; or ...: the flag is required; the path
# printed only where there is a default)})}; a doc not listed goes to stdout. `run`
# and `explain` carry (handler, {flag: add_argument keywords}).
_COMMANDS = {
    "space": {"gen": ("generate", _OUT("space.json")), "info": ("info", {})},
    "rips": {"build": ("rips", _OUT("rips.json"))},
    "flow": {"build": ("flow", _OUT("flow.json"))},
    "family": {"verify": ("verify", {})},
    "flatten": {"run": ("flatten", {"": ("out", ...), ".report": ("report", "-")})},
    "tails": {"build": ("tails", _OUT("cover.json")), "verify": ("verify_tails", {}),
              "transport": ("transport", _OUT("transported.json"))},
    "amen": {"boundary": ("boundary", {}), "search": ("search", {})},
    "coarse": {"push": ("push", _OUT("pushed.json")),
               "project": ("project", _OUT("projected.json"))},
    "box": {"build": ("box", {".space": ("out", "boxspace.json"), "": ("family_out", None),
                              ".report": ("report", "-")})},
    "run": (cmd_run, {"--config": dict(required=True), "--out": dict(required=True),
                      "--seed": dict(type=int, default=None)}),
    "explain": (cmd_explain, {"report": {}}),
}
# how a stage command presents a param, beyond its flag and its default
_KEYWORDS = {**dict.fromkeys(("m", "boxes", "M"), dict(type=int)),
             "require_flat": dict(action="store_true"),
             "spec": dict(help="generator descriptor file or inline JSON")}


def _stage_flags(kind, outputs):
    """{flag: add_argument keywords} of the command that runs stage `kind`, in
    help order: its input roles, the --space its family is read against, its
    params and its output files. A role, and a param whose `STAGES` default is
    `...`, is required; every other param takes its default from `STAGES`."""
    from .pipeline import STAGES
    stage, spell = STAGES[kind], {name: flag for flag, name in _NAMES.items()}
    reads_family = "family" in stage.inputs and "space" not in stage.inputs
    names = {**dict.fromkeys([*stage.inputs, *["space"] * reads_family], ...), **stage.params,
             **{flag: default if default is ... else None for flag, default in outputs.values()}}
    return {"--" + spell.get(name, name).replace("_", "-"): {
        **(dict(required=True) if default is ... else dict(default=default)),
        **_KEYWORDS.get(name, {})} for name, default in names.items()}


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
                fill(cmds.add_parser(name), _stage_flags(*row), handler=cmd_stage, row=row)
    return top


def main(argv=None) -> int:
    """Run one command and return its exit code. The whole command runs with
    the cyclic collector paused: its data are acyclic, so the collections a
    large artifact's lists would set off only rescan the objects the imports
    made. The caller's collector state is restored on return."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv).parse_args(argv)
        try:
            return args.handler(args)
        except InternalInvariantError as e:
            print(f"internal invariant violation: {e}", file=sys.stderr)
            return 3
        except (FolnerflowError, ValueError, KeyError, OSError) as e:
            print(f"error: {error_message(e)}", file=sys.stderr)
            return 2
        except MemoryError:
            print("error: the request is too large to build in memory", file=sys.stderr)
            return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    status = main()
    gc.freeze()  # the collection at interpreter exit, run even with the collector off, skips it all
    sys.exit(status)
