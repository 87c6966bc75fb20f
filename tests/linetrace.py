"""A pytest plugin that lists the lines of `src/rsccore` a test run never
executes.  It is not a test module, so pytest does not collect it; load it
with `-p`, the tests directory on the import path:

    PYTHONPATH=src:tests python -m pytest -p linetrace -q

At the end of the session it prints, per source file, how many of its
executable lines never ran, and writes those lines (as ranges) to
`.linetrace/unrun.txt`.  A file's executable lines are the line starts
of its compiled code objects.

Three things would otherwise make lines look unrun that did run:
- Hypothesis's explain phase installs its own `sys.settrace` tracer and
  does not put ours back, so the tracer is installed again before each
  test's setup, call and teardown.
- CLI tests run `rsc` in subprocesses, which inherit no tracer.  While the
  plugin is loaded, a Python subprocess started through `subprocess`
  gets a `sitecustomize` that traces it and writes its lines to a file at
  exit; the plugin merges those files.
- Module-level lines run once, at import.  The tracer is installed when
  pytest configures the plugin, before any test module imports
  `rsccore`, and a module imported earlier than that has its top-level
  lines counted as run.
"""

from __future__ import annotations

import atexit
import dis
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rsccore"
_PREFIX = str(SRC) + os.sep

_hits: dict[str, set] = {}
_wanted: dict = {}  # code object -> its file's hit set, or None


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    hits = _wanted.get(code, False)
    if hits is False:
        name = code.co_filename
        hits = _hits.setdefault(name, set()) \
            if name.startswith(_PREFIX) else None
        _wanted[code] = hits
    if hits is None:
        return None
    hits.add(code.co_firstlineno)
    return _local


def _install():
    if sys.gettrace() is not _global:
        sys.settrace(_global)


def trace_child(out_dir: str) -> None:
    """Trace this (sub)process and write its hits to `out_dir` at exit."""
    _install()

    def dump():
        path = Path(out_dir) / f"{os.getpid()}.json"
        path.write_text(json.dumps({f: sorted(h) for f, h in _hits.items()}))
    atexit.register(dump)


_child_dir = ""  # the subprocesses' sitecustomize and hit files
_popen_init = subprocess.Popen.__init__


def _traced_popen_init(self, args, *rest, **kw):
    argv = [args] if isinstance(args, (str, bytes)) else list(args)
    if argv and str(argv[0]).split()[:1] == [sys.executable]:
        env = dict(os.environ if kw.get("env") is None else kw["env"])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_child_dir, env.get("PYTHONPATH")) if p)
        kw["env"] = env
    _popen_init(self, args, *rest, **kw)


def _executable_lines(path: Path) -> set:
    out: set = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, line in dis.findlinestarts(code)
                   if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return out


def _top_level_lines(path: Path) -> set:
    code = compile(path.read_text(), str(path), "exec")
    return {line for _, line in dis.findlinestarts(code) if line is not None}


def _ranges(lines: list) -> str:
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


def unrun_lines() -> dict:
    """Per source file (relative to `src/rsccore`), its executable lines
    that never ran, in this process or a traced subprocess."""
    for f in Path(_child_dir).glob("*.json"):
        for name, lines in json.loads(f.read_text()).items():
            _hits.setdefault(name, set()).update(lines)
    imported = {getattr(m, "__file__", None)
                for m in list(sys.modules.values())}
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        hits = _hits.get(str(path), set())
        if str(path) in imported:
            hits = hits | _top_level_lines(path)
        lines = _executable_lines(path)
        out[str(path.relative_to(SRC))] = (sorted(lines - hits), len(lines))
    return out


def pytest_configure(config):
    global _child_dir
    _child_dir = tempfile.mkdtemp(prefix="rsc-linetrace-")
    Path(_child_dir, "sitecustomize.py").write_text(
        f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        f"import linetrace\nlinetrace.trace_child({_child_dir!r})\n")
    subprocess.Popen.__init__ = _traced_popen_init
    _install()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    _install()
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    _install()
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    _install()
    yield


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    subprocess.Popen.__init__ = _popen_init
    report = unrun_lines()
    shutil.rmtree(_child_dir, ignore_errors=True)
    out = Path(".linetrace/unrun.txt")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(f"{name}: {len(unrun)} of {total} unrun: "
                           f"{_ranges(unrun)}\n"
                           for name, (unrun, total) in report.items()))
    tr = terminalreporter
    tr.section("lines never run")
    for name, (unrun, total) in report.items():
        tr.write_line(f"{name:32} {len(unrun):4} of {total:4}")
    tr.write_line(f"written to {out}")
