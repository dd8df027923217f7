"""Layered benchmark for folnerflow.

    python3 bench/run.py --workload line-flatten --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`. Workloads (see BENCHMARK.json): line-flatten, grid-metric,
cli-artifacts, or `all` to run each in its own process. Each is a seeded
job list run as a closed loop by one client, one job at a time.

--trace 0 runs whole passes over the job list until --seconds would be
exceeded (at least one) and reports the end-to-end metrics: latency
percentiles over each job's median across the passes, and jobs per
second over the median pass. Fixed reference work (bench/speed.py) runs
just before every timed job and between set-up processes, and each time
is scaled to the reference's speed, so the host's drifting speed does not
move the figures. The report lines beside the result also give the times
as measured, unscaled. --trace 1 runs two passes that trace
alternate jobs, so each job runs once traced and once not, records spans
around every call the benchmark makes into a layer, and reports the
per-layer metrics; cli-artifacts traces an in-process replay of each
child's job instead. Spans go to .bench_work/trace-<workload>-<seed>.jsonl.

Every job's outputs are checked and hashed into a verdict digest, which
is compared with bench/digests.json where that holds the seed and written
to .bench_work/verdicts-<workload>-<seed>.json. Failures are printed with
their job ids. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import speed
from spans import NullTracer, Tracer, perf, percentile, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("line-flatten", "grid-metric", "cli-artifacts")
DEFAULT_SEED = 1
SETUP_REPEATS = 7
SETUP_SAMPLES = 2  # reference samples between two set-up processes
STARTUP_REPEATS = 5
NULL = NullTracer()


def load_workload(name):
    module = {"line-flatten": "wl_line_flatten", "grid-metric": "wl_grid_metric",
              "cli-artifacts": "wl_cli_artifacts"}[name]
    return __import__(module)


def reference(wl):
    """Child-process jobs scale by process start, the others by the kernel."""
    return speed.FRESH_PROCESS if hasattr(wl, "replay_job") else speed.IN_PROCESS


def metric_specs():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def record_hash(record):
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    """One pass over the job list: latencies, verdict hashes, failures."""

    def __init__(self):
        self.latencies = []
        self.slots = []  # each job with its checks
        self.probes = []  # the reference's time just before each job
        self.intervals = []
        self.hashes = []
        self.failures = []  # (job id, reason)
        self.counters = Counter()
        self.results = []
        self.wall = 0.0

    def failed_jobs(self):
        return len({job for job, _ in self.failures})

    def scaled(self, ref):
        """Job latencies and the pass's wall time, at the reference speed."""
        scales = ref.scales(self.probes)
        return ([lat * k for lat, k in zip(self.latencies, scales)],
                sum(slot * k for slot, k in zip(self.slots, scales)))


def run_pass(wl, state, jobs, tracers, ref=None):
    """One pass; job i runs under tracers[i], after a sample of the
    reference `ref` if given. Job results are kept only where a replay
    needs them, so they do not add to the memory peak."""
    keep = hasattr(wl, "replay_job")
    p = Pass()
    t0 = perf()
    for job, tr in zip(jobs, tracers):
        tr.job = job["id"]
        if ref:
            p.probes.append(ref.probe())
        start = perf()
        result = None
        try:
            result = wl.run_job(state, job, tr)
            end = perf()
            record, failures, counters = wl.check(state, job, result)
        except Exception as e:  # a job that raises is one failed job; the run goes on
            end = perf()
            traceback.print_exc(file=sys.stderr)
            record, failures, counters = {"error": repr(e)}, [f"raised {e!r}"], {}
        p.latencies.append(end - start)
        p.intervals.append((start, end))
        p.hashes.append(record_hash(record))
        p.failures += [(job["id"], f) for f in failures]
        p.counters.update(counters)
        p.results.append(result if keep else None)
        p.slots.append(perf() - start)
    p.wall = perf() - t0
    return p


def replay_pass(wl, state, jobs, tracers, sub, sub_dir, parents):
    """In-process replay of child-process jobs, checked against `sub`; the
    spans of job i become children of span parents[i]."""
    p = Pass()
    t0 = perf()
    for i, (job, tr) in enumerate(zip(jobs, tracers)):
        tr.job = job["id"]
        start = perf()
        try:
            with tr.under(parents[i]):
                stdout = wl.replay_job(state, job, tr)
            end = perf()
            sub_result = sub.results[i]
            failures = wl.check_replay(state, job, stdout, sub_result and sub_result[1], sub_dir)
        except Exception as e:  # as in run_pass
            end = perf()
            traceback.print_exc(file=sys.stderr)
            failures = [f"replay raised {e!r}"]
        p.latencies.append(end - start)
        p.failures += [(job["id"], f) for f in failures]
    p.wall = perf() - t0
    return p


def alternate(tr, n, first):
    """Per-job tracers: traced on even jobs when `first`, else on odd."""
    return [tr if (i % 2 == 0) == first else NULL for i in range(n)]


def tracing_cost(passes):
    """Traced minus untraced job time over untraced, each job run once each way."""
    traced = plain = 0.0
    for p, first in zip(passes, (True, False)):
        for i, lat in enumerate(p.latencies):
            if (i % 2 == 0) == first:
                traced += lat
            else:
                plain += lat
    return traced, (traced - plain) / plain


def probe(argv, env=None):
    """Run a child to completion; returns (wall seconds, stdout)."""
    start = perf()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT)
    wall = perf() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc.stdout


def setup_times(name, seed, work):
    """Set-up time in fresh processes: import folnerflow, build the inputs;
    returns the times as measured and at the reference speed, each scaled
    by the process-start samples taken just before and after it."""
    ref = speed.FRESH_PROCESS
    times, samples = [], [ref.probe() for _ in range(SETUP_SAMPLES)]
    for k in range(SETUP_REPEATS):
        workdir = work / f"probe{k}"
        _, out = probe([sys.executable, str(BENCH / "setup_probe.py"), str(SRC), name,
                        str(seed), str(workdir)])
        times.append(float(out.split()[-1]))
        shutil.rmtree(workdir, ignore_errors=True)
        samples += [ref.probe() for _ in range(SETUP_SAMPLES)]
    scaled = [t * ref.scale(samples[k * SETUP_SAMPLES:(k + 2) * SETUP_SAMPLES])
              for k, t in enumerate(times)]
    return times, scaled


def startup_times(env):
    return [probe([sys.executable, "-c", "import folnerflow.cli"], env)[0]
            for _ in range(STARTUP_REPEATS)]


def check_digest(name, seed, passes, full=True):
    """Compare every pass with the first and, for a full job list, the first
    with the stored digest for this seed; returns (digest, status, failures)."""
    first = passes[0].hashes
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()
    failures = []
    for k, p in enumerate(passes[1:], start=2):
        failures += [(i, f"verdict differs between pass 1 and pass {k}")
                     for i, (a, b) in enumerate(zip(first, p.hashes)) if a != b]
    stored = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed)) if DIGESTS.exists() else None
    if not full:
        status = "partial job list, not compared"
    elif stored is None:
        status = "not stored for this seed"
    elif stored["digest"] == digest:
        status = "matches the stored digest"
    else:
        status = "DIFFERS from the stored digest"
        jobs = stored["jobs"]
        failures += [(i, "verdict digest changed") for i in range(len(first))
                     if i >= len(jobs) or jobs[i] != first[i]]
    return digest, status, failures


def derived_counters(counters):
    out = dict(counters)
    if counters.get("flatten.indices"):
        out["flatten.escaped_share"] = counters["flatten.escaped"] / counters["flatten.indices"]
    if counters.get("constructions.foelner_search.searches"):
        out["constructions.foelner_search.found_share"] = (
            counters.get("constructions.foelner_search.found", 0)
            / counters["constructions.foelner_search.searches"])
    return out


def span_metrics(spans, wall):
    by_name, layers = summarize(spans)
    values = {}
    for name, e in by_name.items():
        values[f"{name}.calls"] = e["calls"]
        values[f"{name}.self_s"] = e["self_s"]
        values[f"{name}.p50_ms"] = percentile(e["durs"], 50) * 1e3
        values[f"{name}.p90_ms"] = percentile(e["durs"], 90) * 1e3
    for layer, self_s in layers.items():
        values[f"{layer}.share"] = self_s / wall
    return values


def timed_passes(wl, state, jobs, seconds, fresh):
    """Whole untraced passes until another would overrun `seconds`."""
    if hasattr(wl, "replay_job"):
        startup_times(state["env"])  # warm the interpreter's files
    ref = reference(wl)
    for _ in range(speed.WINDOW):
        ref.probe()
    passes = []
    start = perf()
    while True:
        fresh(f"pass{len(passes)}")
        passes.append(run_pass(wl, state, jobs, [NULL] * len(jobs), ref))
        if perf() - start + passes[-1].wall > seconds:
            return passes


def traced_passes(wl, state, jobs, tr, fresh):
    """Two passes tracing alternate jobs; returns (passes, traced seconds,
    extra metrics)."""
    passes = [run_pass(wl, state, jobs, alternate(tr, len(jobs), first)) for first in (True, False)]
    traced_s, overhead = tracing_cost(passes)
    return passes, traced_s, {"trace.overhead_share": overhead}


def traced_replays(wl, state, jobs, tr, fresh):
    """The child-process pass, untraced, then two in-process replays tracing
    alternate jobs, whose spans hang under each child's span."""
    startup = statistics.median(startup_times(state["env"]))
    sub_dir = fresh("sub")
    sub = run_pass(wl, state, jobs, [NULL] * len(jobs))
    parents = [tr.add("cli.job", s, e, job["id"]) for job, (s, e) in zip(jobs, sub.intervals)]
    replays = []
    for first in (True, False):
        fresh(f"replay{len(replays)}")
        replays.append(replay_pass(wl, state, jobs, alternate(tr, len(jobs), first),
                                   sub, sub_dir, parents))
    _, overhead = tracing_cost(replays)
    plain = [a if i % 2 else b for i, (a, b) in
             enumerate(zip(replays[0].latencies, replays[1].latencies))]
    extras = {
        "trace.overhead_share": overhead,
        "cli.startup_ms": startup * 1e3,
        "cli.overhead_ms": statistics.median(s - r for s, r in zip(sub.latencies, plain)) * 1e3,
        "cli.exit_mismatch": sum(1 for job, res in zip(jobs, sub.results)
                                 if res and res[0] != job["expect"]),
    }
    return [sub, *replays], sub.wall, extras


def timings(jobs, setups, latencies, walls):
    """setup_s, jobs_per_s and the latency percentiles from set-up times
    and, per pass, job latencies and wall time."""
    # each job's median over the passes, so a burst of load on the machine
    # during one pass does not move the percentiles
    per_job = [statistics.median(lat[i] for lat in latencies) for i in range(len(jobs))]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(jobs) / statistics.median(walls),
        "job_p50_ms": percentile(per_job, 50) * 1e3,
        "job_p90_ms": percentile(per_job, 90) * 1e3,
    }


def end_to_end(wl, state, jobs, passes, setups, failed, attempted):
    """The end-to-end values at the reference speed, the same timings as
    measured, and how many samples stand behind each value."""
    scaled = [p.scaled(reference(wl)) for p in passes]
    values = timings(jobs, setups[1], [lat for lat, _ in scaled], [wall for _, wall in scaled])
    measured = timings(jobs, setups[0], [p.latencies for p in passes],
                       [sum(p.slots) for p in passes])
    rss = wl.peak_rss_kb(state) if hasattr(wl, "peak_rss_kb") else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = rss / 1024
    values["ok_share"] = 1 - failed / attempted
    sample = f"{len(jobs)} jobs, median of {len(passes)} pass(es)"
    samples = {"setup_s": f"median of {len(setups[0])} fresh processes",
               "jobs_per_s": sample, "job_p50_ms": sample, "job_p90_ms": sample,
               "peak_rss_mb": "child processes" if hasattr(wl, "peak_rss_kb") else "this process",
               "ok_share": f"failed_share {failed / attempted:g}: {failed} of {attempted}"}
    for name, value in measured.items():
        samples[name] += f"; {value:.6g} as measured"
    return values, samples


def run(name, seed, seconds, trace, jobs_limit=None):
    """Run one workload; returns (result line dict, counters, report lines).
    `jobs_limit` cuts the job list short, for the benchmark's own tests."""
    wl = load_workload(name)
    e2e, per_layer = metric_specs()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = [] if trace else setup_times(name, seed, work)
        tr = Tracer() if trace else NULL
        t0 = perf()
        state = wl.setup(seed, work, tr)
        setup_wall = perf() - t0
        jobs = wl.make_jobs(seed, state)[:jobs_limit]

        def fresh(label):
            return wl.begin_pass(state, work, label) if hasattr(wl, "begin_pass") else None

        fresh("warmup")
        run_pass(wl, state, jobs[:wl.WARMUP], [NULL] * wl.WARMUP)
        if not trace:
            checked = passes = timed_passes(wl, state, jobs, seconds, fresh)
        else:
            traced = traced_replays if hasattr(wl, "replay_job") else traced_passes
            checked, traced_s, extras = traced(wl, state, jobs, tr, fresh)
            passes = checked[:1] if hasattr(wl, "replay_job") else checked

        ids = [job["id"] for job in jobs]
        digest, status, digest_failures = check_digest(name, seed, passes, jobs_limit is None)
        failures = [f for p in checked for f in p.failures]
        failures += [(ids[i], reason) for i, reason in digest_failures]
        attempted = sum(len(p.latencies) for p in checked)
        # a job run fails once however many checks it breaks
        failed = min(attempted, sum(p.failed_jobs() for p in checked)
                     + len({i for i, _ in digest_failures}))
        counters = derived_counters(passes[0].counters)
        (WORK / f"verdicts-{name}-{seed}.json").write_text(
            json.dumps({"digest": digest, "jobs": passes[0].hashes}) + "\n")

        lines = [f"{name} seed {seed}: {len(jobs)} jobs per list, {len(passes)} timed pass(es), "
                 f"{attempted} job runs",
                 f"verdict digest {digest} ({status})",
                 "counters " + json.dumps(counters, sort_keys=True)]
        lines += [f"FAIL {job_id}: {reason}" for job_id, reason in failures]
        if trace:
            tr.write(WORK / f"trace-{name}-{seed}.jsonl")
            values = span_metrics(tr.spans, setup_wall + traced_s)
            values.update(counters)
            values.update(extras)
            specs = per_layer
        else:
            values, samples = end_to_end(wl, state, jobs, passes, setups, failed, attempted)
            lines += [f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}  ({samples[m['name']]})"
                      for m in e2e]
            specs = e2e
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, counters, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed, seconds, trace):
    """Each workload in its own process, so memory peaks stay separate."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        res = json.loads(out[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "folnerflow" / "__init__.py").is_file():
        print(f"error: no folnerflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    sys.path.insert(0, str(SRC))
    import folnerflow
    if Path(folnerflow.__file__).resolve().parent != (SRC / "folnerflow").resolve():
        print(f"error: imported folnerflow from {folnerflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, _, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
