"""Which lines of src/folnerflow never run under the tests.

    python tools/lines.py [pytest arguments]

Runs pytest in a child (the tier-1 suite, `testpaths`, when no arguments
are given) with a line tracer, then prints every executable line of
src/folnerflow that no test ran, each with its function and source text.
Exit status: 0 when every such line is in the allowlist tools/unreached.txt,
1 when one is not or when an allowlist entry matches no line of src/, 2 when
pytest could not run the tests (interrupted, internal error, usage error or
nothing collected). Failing tests do not change the status: coverage is
reported either way, with pytest's own status.

The tracer is `sys.settrace`, installed by a generated `sitecustomize.py`
first on PYTHONPATH, so every child interpreter the tests start (CLI runs,
demos) is traced too; each writes the lines it ran at exit. The same module
is the pytest plugin that reinstalls the tracer before each test: a trace
function that hits the recursion limit (a deeply nested document) is
dropped by CPython. A code object stops being traced once all its lines ran.

The executable lines of a module are those its code objects list in
`co_lines()`, but line 0 (a module's start); a line belongs to the outermost
function that lists it.
An allowlist line reads `module.function | source text | reason`: the
function (a qualified name, `<module>` for module level) and the stripped
source text name the line, so an entry survives edits elsewhere in the file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "folnerflow"
ALLOWLIST = Path(__file__).resolve().parent / "unreached.txt"

# The generated sitecustomize: {src} is the package directory, {out} the
# directory each traced process writes its `<pid>.lines` file to.
SITECUSTOMIZE = '''\
import atexit, os, sys

_SRC, _OUT = {src!r}, {out!r}
_left = {{}}  # code object -> its lines not yet run
_ran = set()  # (file name, line) pairs


def _lines(frame, event, arg):
    if event == "line":
        left = _left[frame.f_code]
        if frame.f_lineno in left:
            left.discard(frame.f_lineno)
            _ran.add((frame.f_code.co_filename, frame.f_lineno))
            if not left:  # every line of this code ran: no more line events here
                frame.f_trace_lines = False
    return _lines


def _calls(frame, event, arg):
    code = frame.f_code
    left = _left.get(code)
    if left is None:  # first call: its lines, or none outside the package
        left = _left[code] = {{line for _, _, line in code.co_lines() if line}} \
            if code.co_filename.startswith(_SRC) else set()
    return _lines if left else None


def _write():
    with open(os.path.join(_OUT, f"{{os.getpid()}}.lines"), "w") as f:
        f.writelines(f"{{name}}\\t{{line}}\\n" for name, line in _ran)


def pytest_runtest_setup(item):
    sys.settrace(_calls)


sys.settrace(_calls)
atexit.register(_write)
'''


def executable_lines(path: Path) -> dict:
    """{line: qualified name of the outermost code object listing it}."""
    owner = {}
    codes = [compile(path.read_text(), str(path), "exec")]
    for code in codes:  # read while it grows: outer code objects first
        for _, _, line in code.co_lines():
            if line:  # not None (no line) or 0 (a module's start)
                owner.setdefault(line, code.co_qualname)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return owner


def parse_allowlist(text: str) -> list:
    """[(function, source, reason)] from the allowlist's non-comment lines."""
    entries = []
    for raw in text.splitlines():
        if raw.strip() and not raw.lstrip().startswith("#"):
            function, rest = raw.split(" | ", 1)
            source, reason = rest.rsplit(" | ", 1)
            entries.append((function.strip(), source.strip(), reason.strip()))
    return entries


def trace(pytest_args) -> tuple[int, set]:
    """(pytest's exit status, the (file name, line) pairs that ran)."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(src=str(PACKAGE) + os.sep, out=str(out)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(site), str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "sitecustomize",
             "-W", "ignore::pytest.PytestAssertRewriteWarning",  # the plugin loads before pytest
             "--continue-on-collection-errors", *pytest_args], cwd=ROOT, env=env).returncode
        ran = set()
        for f in out.glob("*.lines"):
            for row in f.read_text().splitlines():
                name, line = row.rsplit("\t", 1)
                ran.add((name, int(line)))
    return status, ran


def main(argv) -> int:
    status, ran = trace(argv)
    if status in (2, 3, 4, 5):
        print(f"pytest could not run the tests (exit status {status})")
        return 2
    entries = parse_allowlist(ALLOWLIST.read_text())
    allowed = {(f, s) for f, s, _ in entries}
    matched, total, unreached, new = set(), 0, 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line, function in sorted(lines.items()):
            key = (f"{path.stem}.{function}", source[line - 1].strip())
            if key in allowed:
                matched.add(key)
            if (str(path), line) not in ran:
                unreached += 1
                new += key not in allowed
                mark = "allowed" if key in allowed else "NEW"
                print(f"{path.relative_to(ROOT)}:{line}: {mark} {key[0]}: {key[1]}")
    stale = [e for e in entries if e[:2] not in matched]
    for function, source, _ in stale:
        print(f"stale allowlist entry (no such line): {function} | {source}")
    print(f"{unreached} of {total} executable lines never ran, {new} of them not allowlisted; "
          f"pytest exit status {status}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
