"""Record a baseline: ten seeded runs of every workload, plus one traced run.

    python3 bench/record.py

Runs bench/run.py on seeds 1..10 for each workload with --trace 0 and
the run length from BENCHMARK.json, then once with --trace 1 on the
default seed. Writes bench/baseline.json (git SHA, Python version, CPU
count, and per workload each end-to-end metric's median, quartiles and
sample count, the traced per-layer metrics and the work counters of each
seed) and bench/digests.json (each seed's verdict digest and per-job
hashes, which later runs are checked against).
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} is not correct:\n" + "\n".join(lines[:-1]))
    counters = json.loads(next(l for l in lines if l.startswith("counters "))[len("counters "):])
    verdicts = json.loads((ROOT / ".bench_work" / f"verdicts-{workload}-{seed}.json").read_text())
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]),
          flush=True)
    return result, counters, verdicts


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = {"git_sha": git_sha(), "python": platform.python_version(),
                "nproc": os.cpu_count(), "run_seconds": seconds, "seeds": list(SEEDS),
                "workloads": {}}
    digests = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r[0]["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            e2e[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                              "n": len(values), "unit": m["unit"]}
        traced, _, _ = run(name, SEEDS[0], seconds, 1)
        baseline["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": SEEDS[0],
            "counters": {str(seed): r[1] for seed, r in zip(SEEDS, runs)},
        }
        digests[name] = {str(seed): r[2] for seed, r in zip(SEEDS, runs)}
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
