"""Every demo script runs to completion in a fresh interpreter, so a demo
that still uses a deleted or renamed API fails here, and prints exactly the
bytes pinned below, so a change that moves any number a demo shows fails
too. A deliberate change of a demo's output updates its pin."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))

# sha256 of each demo's stdout under PYTHONHASHSEED=0
STDOUT_SHA256 = {
    "01_windows_and_metrics.py": "0762b7a62d90cb60483f9db5c766594e6ccc6ac4b3db47dec026b37fafcbe442",
    "02_graphs_and_flows.py": "8eadbdc40072dea8d355c0f1cb51be399f07cc2b9a7ac4d863daf545ce423581",
    "03_flattening_towers.py": "a3f951c1633ddbc50903ced216f38de701dd6f58165dbb648690d6c6c8b18ee9",
    "04_tail_transport.py": "cb67fd9a7f8411b8f4ea5b6dd95dca08663d9cd93d78f90a5a748d717595d740",
    "05_coarse_transfer.py": "050e06c2792237de722ba4d32f593d85f4edfd4b3572b22908de1cf01a37939d",
    "06_box_spaces.py": "f837ace0111520d6d769f2f2f073771972458cbfb717a0415e8bc476dcde334b",
    "07_pipeline.py": "f596bd6508e749d78b0955cf1973a816680d5ace395c6826ab2c186dcb1844c1",
}


def test_all_seven_demos_found():
    assert len(DEMOS) == 7
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = {**child_env(), "PYTHONHASHSEED": "0"}
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == STDOUT_SHA256[demo.name], \
        r.stdout.decode()
