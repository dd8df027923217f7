"""tools/lines.py: the line tracer over the tests and its allowlist."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("lines_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_lines_a_selection_does_not_reach():
    r = subprocess.run([sys.executable, str(TOOL), "tests/test_chains.py::TestChainProtocol::"
                        "test_window_repr"], capture_output=True, text=True, cwd=ROOT,
                       timeout=300)
    assert r.returncode == 1, r.stdout + r.stderr
    # a tail cover line no chain test runs, and not in the allowlist
    assert re.search(r"^src/folnerflow/tails\.py:\d+: NEW tails\.transport_set: "
                     r"image\.add\(seq\[j\]\)$", r.stdout, re.M), r.stdout
    # an allowlisted line that did not run is reported as allowed
    assert re.search(r"^src/folnerflow/flatten\.py:\d+: allowed flatten\._park: "
                     r"raise InternalInvariantError\(", r.stdout, re.M), r.stdout
    assert re.search(r"^\d+ of \d+ executable lines never ran, \d+ of them not allowlisted; "
                     r"pytest exit status 0$", r.stdout, re.M), r.stdout


def test_every_allowlist_entry_names_a_line_of_src():
    tool = load_tool()
    lines = set()
    for path in tool.PACKAGE.glob("*.py"):
        source = path.read_text().splitlines()
        lines |= {(f"{path.stem}.{function}", source[line - 1].strip())
                  for line, function in tool.executable_lines(path).items()}
    entries = tool.parse_allowlist(tool.ALLOWLIST.read_text())
    assert len(entries) == 3
    for function, source, reason in entries:
        assert (function, source) in lines
        assert reason
