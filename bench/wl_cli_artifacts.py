"""cli-artifacts: sessions of `folnerflow` subcommands, one child process
per job.

Set-up writes seeded input files: generator specs, tent families,
multiset families from perturbed_cluster_family, push maps and pipeline
configs. A job list is seven rounds of five sessions, each session in its
own working directory, each arrow one invocation:

  line:     space gen -> rips build -> flow build -> flatten run -> family verify --flat
  tree:     space gen -> tails build -> tails verify -> tails transport -> family verify
  box:      box build --F ... --family-out -> family verify --flat
  push:     coarse push
  pipeline: run --config -> explain

One line session per list puts its tent core inside the sink's margin, so
`flatten run` exits 1 there; every other job exits 0.

Children run one at a time with an absolute PYTHONPATH taken from
folnerflow.__file__ and PYTHONHASHSEED=0. The traced run replays each job
in-process as the calls its handler makes (load, compute, *_to_json,
dump_json) and requires the same stdout and byte-identical artifacts. The
replay loads through the pieces of the handlers' loaders: jsonio.load_json
with space_from_json, family_from_json, multiset_family_from_json,
rips_from_json, flow_from_json, cover_from_json and
PipelineConfig.from_json; it saves through space_to_json, rips_to_json,
flow_to_json, family_to_json, cover_to_json and jsonio.dump_json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import folnerflow
from folnerflow import (
    ball_family,
    box_family,
    build_box_space,
    build_flow,
    build_rips,
    build_tree_tails,
    generate,
    perturbed_cluster_family,
    pushforward_injective,
    tail_transport,
    tent_family,
    verify_family,
    verify_tail_cover,
)
from folnerflow import pipeline
from folnerflow.chains import (
    family_from_json,
    family_to_json,
    multiset_family_from_json,
    multiset_family_to_json,
)
from folnerflow.jsonio import dump_json, load_json
from folnerflow.rips import flow_from_json, flow_to_json, rips_from_json, rips_to_json
from folnerflow.space import space_from_json, space_to_json
from folnerflow.tails import cover_from_json, cover_to_json
from wl_line_flatten import margin, tent_eps

NAME = "cli-artifacts"
WARMUP = 0
ROUNDS = 7
LINE = {"kind": "grid", "dim": 1, "low": -200, "high": 200}
TREE = {"kind": "tree", "branching": 2, "depth": 11}
PUSH_DOMAIN = {"kind": "grid", "dim": 1, "low": 0, "high": 120}
PUSH_TARGET = {"kind": "grid", "dim": 1, "low": 0, "high": 242}
PIPE_LINE = {"kind": "grid", "dim": 1, "low": -60, "high": 60}
TENT_WIDTHS = (5, 6, 7, 8, 9, 10, 11)
TENT_CORE = 20
BOXES = ((2, 7), (3, 5), (4, 4), (2, 8), (3, 5), (5, 3), (4, 4))
PIPE_WIDTHS = (4, 5, 6, 4, 5, 6, 5)
CLUSTER_M = 4
IN = "../../in"  # inputs, seen from a session directory

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "FOLNERFLOW_OUT"}
    src = str(Path(folnerflow.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _write(tr, doc, path):
    tr.call("jsonio.dump_json", dump_json, doc, path)


def setup(seed, workdir, tr):
    rng = random.Random(f"{NAME}/{seed}")
    inp = Path(workdir) / "in"
    inp.mkdir(parents=True)
    line = tr.call("space.generate", generate, LINE)
    tree = tr.call("space.generate", generate, TREE)
    domain = tr.call("space.generate", generate, PUSH_DOMAIN)
    for name, doc in (("line.spec", LINE), ("tree.spec", TREE)):
        _write(tr, doc, inp / f"{name}.json")
    target = tr.call("space.generate", generate, PUSH_TARGET)
    for name, space in (("push_domain", domain), ("push_target", target)):
        _write(tr, tr.call("space.space_to_json", space_to_json, space), inp / f"{name}.json")

    escape_round = rng.randrange(ROUNDS)
    widths = list(TENT_WIDTHS)
    rng.shuffle(widths)
    depths = tree.meta["depths"]
    # members sit within 1 + 2 of a centre and need CLUSTER_M more tail
    # steps before the leaves at depth 11
    centre_pool = [v for v in range(tree.n) if 3 <= depths[v] <= 5]
    rounds = []
    for r in range(ROUNDS):
        W = widths[r]
        if r == escape_round:
            lo = margin(W) - rng.randint(1, 5)
        else:
            lo = rng.randint(margin(W), line.n - W - TENT_CORE)
        tent = tr.call("families.tent_family", tent_family, line, W, 1, tent_eps(W),
                       core=range(lo, lo + TENT_CORE))
        _write(tr, tr.call("chains.family_to_json", family_to_json, tent), inp / f"tent{r}.json")

        centres = []
        while len(centres) < 3:
            c = rng.choice(centre_pool)
            if all(tree.dist(c, o) > 3 for o in centres):
                centres.append(c)
        cluster = tr.call(
            "families.perturbed_cluster_family", perturbed_cluster_family, tree, rng,
            M=CLUSTER_M, centers=centres, cluster_radius=2, core_radius=1, base_size=40,
            R=1, epsilon=Fraction(1, 8))
        _write(tr, multiset_family_to_json(cluster), inp / f"cluster{r}.json")

        shift = rng.randint(0, 1)
        _write(tr, {"f": [[x, 2 * x + shift] for x in range(domain.n)]}, inp / f"map{r}.json")
        radius = rng.randint(1, 3)
        push_fam = tr.call("families.ball_family", ball_family, domain, radius, 1, 1)
        _write(tr, family_to_json(push_fam), inp / f"pushfam{r}.json")

        pw = PIPE_WIDTHS[r]
        plo = rng.randint(-60 + margin(pw), 60 - pw - 15)
        _write(tr, _pipeline_config(r, pw, plo, tent_eps(pw)), inp / f"pipe{r}.json")
        k = rng.randint(9, 12)
        rounds.append({"escape": r == escape_round, "tent": tent, "F": k})
    return {"rounds": rounds, "env": child_env(), "rss_kb": 0}


def _pipeline_config(r, width, lo, eps):
    return {
        "seed": r,
        "stages": [
            {"name": "win", "kind": "generate", "params": {"spec": PIPE_LINE}},
            {"name": "graph", "kind": "rips", "params": {"r": "1/1"}, "inputs": {"space": "win"}},
            {"name": "exit", "kind": "flow", "inputs": {"rips": "graph"}},
            {"name": "tent", "kind": "family", "inputs": {"space": "win"},
             "params": {"kind": "tent", "width": width, "R": "1/1",
                        "epsilon": f"{eps.numerator}/{eps.denominator}",
                        "core": {"coords": [lo, lo + 15]}}},
            {"name": "flat", "kind": "flatten", "inputs": {"family": "tent", "flow": "exit"}},
            {"name": "check", "kind": "verify", "params": {"require_flat": True},
             "inputs": {"family": "flat"}},
        ],
    }


def _job(session, argv, inputs=(), outputs=(), expect=0, **extra):
    return {"session": session, "argv": list(argv), "inputs": list(inputs),
            "outputs": list(outputs), "expect": expect, **extra}


def make_jobs(seed, state):
    jobs = []
    for r, rd in enumerate(state["rounds"]):
        line, tree, box = f"r{r}-line", f"r{r}-tree", f"r{r}-box"
        m, boxes = BOXES[r]
        jobs += [
            _job(line, ["space", "gen", "--spec", f"{IN}/line.spec.json", "--out", "space.json"],
                 [f"{IN}/line.spec.json"], ["space.json"]),
            _job(line, ["rips", "build", "--space", "space.json", "--r", "1", "--out", "rips.json"],
                 ["space.json"], ["rips.json"]),
            _job(line, ["flow", "build", "--rips", "rips.json", "--out", "flow.json"],
                 ["rips.json"], ["flow.json"]),
            _job(line, ["flatten", "run", "--family", f"{IN}/tent{r}.json", "--flow", "flow.json",
                        "--space", "space.json", "--out", "flat.json",
                        "--report", "flat.report.json"],
                 ["space.json", f"{IN}/tent{r}.json", "flow.json"],
                 ["flat.json", "flat.report.json"], expect=1 if rd["escape"] else 0, round=r),
            _job(line, ["family", "verify", "--family", "flat.json", "--space", "space.json",
                        "--flat"], ["space.json", "flat.json"], stdout_json=True),
            _job(tree, ["space", "gen", "--spec", f"{IN}/tree.spec.json", "--out", "tree.json"],
                 [f"{IN}/tree.spec.json"], ["tree.json"]),
            _job(tree, ["tails", "build", "--space", "tree.json", "--out", "cover.json"],
                 ["tree.json"], ["cover.json"]),
            _job(tree, ["tails", "verify", "--space", "tree.json", "--cover", "cover.json"],
                 ["tree.json", "cover.json"], stdout_json=True),
            _job(tree, ["tails", "transport", "--space", "tree.json", "--cover", "cover.json",
                        "--family", f"{IN}/cluster{r}.json", "--M", str(CLUSTER_M),
                        "--out", "transported.json"],
                 ["tree.json", f"{IN}/cluster{r}.json", "cover.json"], ["transported.json"]),
            _job(tree, ["family", "verify", "--family", "transported.json", "--space", "tree.json"],
                 ["tree.json", "transported.json"], stdout_json=True),
            _job(box, ["box", "build", "--m", str(m), "--boxes", str(boxes),
                       "--F", f"0..{rd['F']}", "--R", "1", "--eps", "1/4", "--out", "box.json",
                       "--family-out", "boxfam.json", "--report", "box.report.json"],
                 [], ["box.json", "boxfam.json", "box.report.json"]),
            _job(box, ["family", "verify", "--family", "boxfam.json", "--space", "box.json",
                       "--flat"], ["box.json", "boxfam.json"], stdout_json=True),
            _job(f"r{r}-push", ["coarse", "push", "--family", f"{IN}/pushfam{r}.json",
                                "--space", f"{IN}/push_domain.json",
                                "--target", f"{IN}/push_target.json",
                                "--map", f"{IN}/map{r}.json", "--out", "pushed.json"],
                 [f"{IN}/push_domain.json", f"{IN}/push_target.json", f"{IN}/pushfam{r}.json",
                  f"{IN}/map{r}.json"], ["pushed.json"]),
            _job(f"r{r}-pipe", ["run", "--config", f"{IN}/pipe{r}.json", "--out", "out"],
                 [f"{IN}/pipe{r}.json"], ["out"]),
            _job(f"r{r}-pipe", ["explain", "out/report.json"], ["out/report.json"]),
        ]
    for i, job in enumerate(jobs):
        job["id"] = f"ca{i:03d}"
    return jobs


# -- the subprocess run ------------------------------------------------------


def run_job(state, job, tr):
    cwd = state["pass_dir"] / job["session"]
    cwd.mkdir(exist_ok=True)
    with open(cwd / "stdout.txt", "wb+") as out, open(cwd / "stderr.txt", "wb+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "folnerflow.cli", *job["argv"]],
                                cwd=cwd, env=state["env"], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    state["rss_kb"] = max(state["rss_kb"], usage.ru_maxrss)
    return proc.returncode, stdout, stderr


def _files(cwd, outputs):
    """Every artifact file a job wrote, by path relative to its session."""
    found = {}
    for name in outputs:
        path = cwd / name
        for f in sorted(path.rglob("*.json")) if path.is_dir() else [path]:
            found[str(f.relative_to(cwd))] = f
    return found


def check(state, job, result):
    rc, stdout, stderr = result
    cwd = state["pass_dir"] / job["session"]
    failures = []
    if rc != job["expect"]:
        failures.append(f"exit code {rc}, documented {job['expect']}: {stderr.strip()[-200:]}")
    files = _files(cwd, job["outputs"])
    artifacts = {}
    for rel, path in files.items():
        if not path.is_file():
            failures.append(f"missing artifact {rel}")
            continue
        artifacts[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    counters = {
        "jsonio.load_json.bytes": sum((cwd / p).stat().st_size for p in job["inputs"]),
        "jsonio.dump_json.bytes": sum(p.stat().st_size for p in files.values() if p.is_file())
        + (len(stdout.encode()) if job.get("stdout_json") else 0),
    }
    if rc == job["expect"] and not failures:
        try:
            failures += _load_back(state, job, cwd, stdout, counters)
        except (folnerflow.FolnerflowError, ValueError, KeyError, OSError) as e:
            failures.append(f"artifact does not load back: {e!r}")
    return {"job": job["argv"], "rc": rc, "stdout": stdout, "artifacts": artifacts}, failures, counters


def _load_back(state, job, cwd, stdout, counters):
    """Load every artifact the job wrote and check its documented invariants."""
    argv = job["argv"]
    cmd = tuple(argv[:2])
    failures = []
    if cmd == ("space", "gen"):
        folnerflow.load_space(cwd / argv[-1])
    elif cmd == ("rips", "build"):
        rips, _ = rips_from_json(load_json(cwd / "rips.json"))
        counters["rips.edges"] = rips.edge_count()
    elif cmd == ("flow", "build"):
        flow_from_json(load_json(cwd / "flow.json"))
    elif cmd == ("flatten", "run"):
        space = folnerflow.load_space(cwd / "space.json")
        flat = family_from_json(load_json(cwd / "flat.json"), space)
        report = load_json(cwd / "flat.report.json")
        tent = state["rounds"][job["round"]]["tent"]
        escaped = set(report["escaped_indices"])
        if not escaped <= set(tent.chains) or bool(escaped) != bool(job["expect"]):
            failures.append(f"escaped indices {sorted(escaped)} do not match the core design")
        for x, chain in flat.chains.items():
            if not chain.is_flat() or chain.l1() != tent.chains[x].l1():
                failures.append(f"flat chain {x} is not 0,1-valued with the input's l1 norm")
        counters["flatten.indices"] = len(tent.chains)
        counters["flatten.escaped"] = len(escaped)
        counters["flatten.tower_mass"] = sum(
            v - 1 for c in tent.chains.values() for v in c.values() if v > 1)
        counters["flatten.max_steps"] = report["max_steps"]
    elif cmd == ("family", "verify"):
        report = json.loads(stdout)
        if not report["passed"]:
            failures.append("family verify reported a failure")
        counters["chains.pairs"] = report["pairs_checked"]
    elif cmd == ("tails", "build"):
        cover = cover_from_json(load_json(cwd / "cover.json"))
        counters["tails.tail_points"] = sum(len(t) for t in cover.tails.values())
    elif cmd == ("tails", "verify"):
        report = json.loads(stdout)
        if not report["passed"] or report["measured_K"] > 2:
            failures.append(f"tail cover fails or has K = {report['measured_K']} > 2")
    elif cmd == ("tails", "transport"):
        tree = folnerflow.load_space(cwd / "tree.json")
        fam = family_from_json(load_json(cwd / "transported.json"), tree)
        if fam.params.epsilon != Fraction(1, 4):
            failures.append(f"transported epsilon {fam.params.epsilon}, expected 1/8 * K = 1/4")
    elif cmd == ("box", "build"):
        box = folnerflow.load_space(cwd / "box.json")
        family_from_json(load_json(cwd / "boxfam.json"), box)
        report = load_json(cwd / "box.report.json")
        if not report["equalities_hold"]:
            failures.append("box equalities fail")
        counters["constructions.box_family.pairs"] = report["pairs_checked"]
    elif cmd == ("coarse", "push"):
        target = folnerflow.load_space(cwd / argv[argv.index("--target") + 1])
        family_from_json(load_json(cwd / "pushed.json"), target)
    elif argv[0] == "run":
        report = load_json(cwd / "out" / "report.json")
        if not report["passed"] or not stdout.startswith("run verdict: PASS"):
            failures.append("pipeline run did not pass")
        state.setdefault("run_stdout", {})[job["session"]] = stdout
    elif argv[0] == "explain":
        if stdout != state.get("run_stdout", {}).get(job["session"]):
            failures.append("explain output differs from what run printed")
    return failures


def peak_rss_kb(state):
    return state["rss_kb"]


# -- the in-process replay ---------------------------------------------------


def _load(tr, path, name, from_json, *args):
    doc = tr.call("jsonio.load_json", load_json, path)
    return tr.call(name, from_json, doc, *args)


def _load_space(tr, path):
    return _load(tr, path, "space.space_from_json", space_from_json)


def _load_family(tr, path, space=None):
    doc = tr.call("jsonio.load_json", load_json, path)
    if "sets" in doc:
        return tr.call("chains.multiset_family_from_json", multiset_family_from_json, doc)
    return tr.call("chains.family_from_json", family_from_json, doc, space)


def _emit(tr, out, doc, path=None):
    text = tr.call("jsonio.dump_json", dump_json, doc, path)
    out.write(text if path is None else f"{path}\n")


def replay_job(state, job, tr):
    """The calls the job's CLI handler makes, run in this process from the
    same session-relative paths; returns what the handler prints."""
    cwd = state["pass_dir"] / job["session"]
    cwd.mkdir(exist_ok=True)
    opts = dict(zip(job["argv"][2::2], job["argv"][3::2]))
    out = io.StringIO()
    with contextlib.chdir(cwd):
        _replay(tr, tuple(job["argv"][:2]), job["argv"], opts, out)
    return out.getvalue()


def _replay(tr, cmd, argv, opts, out):
    report_to_json = lambda layer, report: tr.call(f"{layer}.report_to_json", report.to_json)
    if cmd == ("space", "gen"):
        space = tr.call("space.generate", generate, tr.call("jsonio.load_json", load_json, opts["--spec"]))
        _emit(tr, out, tr.call("space.space_to_json", space_to_json, space), opts["--out"])
    elif cmd == ("rips", "build"):
        space = _load_space(tr, opts["--space"])
        rips = tr.call("rips.build_rips", build_rips, space, Fraction(opts["--r"]))
        _emit(tr, out, tr.call("rips.rips_to_json", rips_to_json, space, rips), opts["--out"])
    elif cmd == ("flow", "build"):
        rips, _ = _load(tr, opts["--rips"], "rips.rips_from_json", rips_from_json)
        # the handler builds the flow from the graph and the frontier stored
        # beside it; build_flow takes that frontier from the session's space
        space = _load_space(tr, "space.json")
        flow = tr.call("rips.build_flow", build_flow, space, rips)
        _emit(tr, out, tr.call("rips.flow_to_json", flow_to_json, flow), opts["--out"])
    elif cmd == ("flatten", "run"):
        space = _load_space(tr, opts["--space"])
        fam = _load_family(tr, opts["--family"], space)
        flow = _load(tr, opts["--flow"], "rips.flow_from_json", flow_from_json)
        flat, report = tr.call("flatten.flatten_family", folnerflow.flatten_family, fam, flow,
                               on_escape="collect")
        tr.call("jsonio.dump_json", dump_json,
                tr.call("chains.family_to_json", family_to_json, flat), opts["--out"])
        _emit(tr, out, report_to_json("flatten", report), opts["--report"])
    elif cmd == ("family", "verify"):
        space = _load_space(tr, opts["--space"])
        fam = _load_family(tr, opts["--family"], space)
        report = tr.call("chains.verify_family", verify_family, fam, require_flat="--flat" in argv)
        _emit(tr, out, report_to_json("chains", report))
    elif cmd == ("tails", "build"):
        space = _load_space(tr, opts["--space"])
        cover = tr.call("tails.build_tree_tails", build_tree_tails, space)
        _emit(tr, out, tr.call("tails.cover_to_json", cover_to_json, cover), opts["--out"])
    elif cmd == ("tails", "verify"):
        space = _load_space(tr, opts["--space"])
        cover = _load(tr, opts["--cover"], "tails.cover_from_json", cover_from_json)
        report = tr.call("tails.verify_tail_cover", verify_tail_cover, cover, space)
        _emit(tr, out, report_to_json("tails", report))
    elif cmd == ("tails", "transport"):
        space = _load_space(tr, opts["--space"])
        fam = _load_family(tr, opts["--family"])
        cover = _load(tr, opts["--cover"], "tails.cover_from_json", cover_from_json)
        flat = tr.call("tails.tail_transport", tail_transport, fam, cover, space)
        _emit(tr, out, tr.call("chains.family_to_json", family_to_json, flat), opts["--out"])
    elif cmd == ("box", "build"):
        model = tr.call("constructions.build_box_space", build_box_space,
                        int(opts["--m"]), int(opts["--boxes"]), None)
        tr.call("jsonio.dump_json", dump_json,
                tr.call("space.space_to_json", space_to_json, model.space), opts["--out"])
        out.write(f"{opts['--out']}\n")
        lo, hi = opts["--F"].split("..")
        fam, report = tr.call("constructions.box_family", box_family, model,
                              list(range(int(lo), int(hi) + 1)),
                              Fraction(opts["--R"]), Fraction(opts["--eps"]))
        tr.call("jsonio.dump_json", dump_json,
                tr.call("chains.family_to_json", family_to_json, fam), opts["--family-out"])
        _emit(tr, out, report_to_json("constructions", report), opts["--report"])
    elif cmd == ("coarse", "push"):
        domain = _load_space(tr, opts["--space"])
        target = _load_space(tr, opts["--target"])
        fam = _load_family(tr, opts["--family"], domain)
        fmap = {x: y for x, y in tr.call("jsonio.load_json", load_json, opts["--map"])["f"]}
        pushed = tr.call("constructions.pushforward_injective", pushforward_injective,
                         fam, fmap, target)
        _emit(tr, out, tr.call("chains.family_to_json", family_to_json, pushed), opts["--out"])
    elif argv[0] == "run":
        opts = dict(zip(argv[1::2], argv[2::2]))
        config = _load(tr, opts["--config"], "pipeline.PipelineConfig.from_json",
                       pipeline.PipelineConfig.from_json)
        report = tr.call("pipeline.run", pipeline.run, config, opts["--out"])
        out.write(tr.call("pipeline.explain", pipeline.explain, report))
    elif argv[0] == "explain":
        report = tr.call("jsonio.load_json", load_json, argv[1])
        out.write(tr.call("pipeline.explain", pipeline.explain, report))
    else:
        raise ValueError(f"no replay for {argv}")


def check_replay(state, job, stdout, sub_stdout, sub_dir):
    """The replay must print what the child printed and write the same bytes."""
    failures = []
    if stdout != sub_stdout:
        failures.append("replay stdout differs from the child's")
    here = _files(state["pass_dir"] / job["session"], job["outputs"])
    there = _files(sub_dir / job["session"], job["outputs"])
    if set(here) != set(there):
        failures.append(f"replay wrote {sorted(here)}, the child {sorted(there)}")
    for rel in set(here) & set(there):
        if here[rel].read_bytes() != there[rel].read_bytes():
            failures.append(f"replay artifact {rel} differs from the child's")
    return failures


def begin_pass(state, work, name):
    """Fresh session directories for one pass over the job list."""
    path = Path(work) / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir()
    state["pass_dir"] = path
    return path
