"""Checks of the benchmark itself:

    python3 -m pytest -q bench/test_bench.py

The work counters must repeat exactly across two runs of one seed, so a
change in them means the work changed, not the timing.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402

# one cli-artifacts round is 15 jobs; every session in it is complete
JOBS = {"line-flatten": 16, "grid-metric": 16, "cli-artifacts": 15}
COUNTED = {"count", "B"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counters_repeat_for_one_seed(name):
    outcomes = [run.run(name, 7, 0, 1, jobs_limit=JOBS[name]) for _ in range(2)]
    (first, counters, _), (second, counters2, _) = outcomes
    assert first["correct"] and second["correct"]
    assert counters and counters == counters2
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in COUNTED}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in COUNTED}


def test_scales_follow_the_reference_speed():
    ref = speed.Reference(lambda: None, 0.002)
    # a host twice as slow for the second half of a pass
    probes = [0.002] * 30 + [0.004] * 30
    scales = ref.scales(probes)
    assert scales[0] == 1.0 and scales[-1] == 0.5
    assert all(a >= b for a, b in zip(scales, scales[1:]))


def test_benchmark_json_keeps_the_contract():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "line-flatten",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
