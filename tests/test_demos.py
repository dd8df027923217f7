"""Every demo script runs to completion in a fresh interpreter, so a demo
that still uses a deleted or renamed API fails here."""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_all_seven_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       cwd=tmp_path, env=child_env())
    assert r.returncode == 0, r.stderr
