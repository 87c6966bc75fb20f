"""The four benchmark workloads.

Each workload turns a seed into a list of inputs.  Running an input is one
timed call into rsccore that returns an `Outcome`: a canonical text of
everything the input produced (compared across passes and runs), whether
it reached a result, whether that result equals a reference that does not
come from the checker, and how much work it completed.

Calls go through module attributes (`checker.check_program`, ...) at call
time, so the tracing wrappers of `tracer.py` see them.
"""

from __future__ import annotations

import json
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from programs import ladder_arrays, ladder_programs, sim_programs

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
MANIFEST = Path(__file__).resolve().parent / "corpus_manifest.json"

# Per-check deadlines.  No corpus file comes near its deadline; on the
# ladder every decided rung takes under 60% of it even on a slow VM, and
# the rungs past the Fourier-Motzkin cliff never finish, so a check that
# misses it is the known defect, not noise.  The ladder deadline is short
# because the undecided rungs spend all of it in the first pass (and in
# every pass of a traced run).
CORPUS_DEADLINE_S = 30.0
LADDER_DEADLINE_S = 3.0
SIM_FUEL = 10_000
RUN_FUEL = 10_000_000
INTERP_SIZES = (1000, 1500, 2000, 2500)


class GeneratorBug(Exception):
    """A generated input does not behave as its generator promises."""


class DeadlineExceeded(BaseException):
    """Raised by the deadline alarm.  Not an `Exception`, so the checker's
    broad handlers cannot turn it into a diagnostic."""


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    output: str      # canonical text; must repeat exactly
    decided: bool    # reached a verdict / report / terminal value in time
    matches: bool    # the result equals the reference
    work: int        # verdicts, source steps, or machine steps
    detail: str = ""


@dataclass
class Item:
    name: str
    call: Callable[[], Outcome]
    group: str = ""  # interp-run: the machine, for the per-machine rates


@dataclass
class Workload:
    name: str
    items: list
    work_unit: str
    aliases: dict    # benchmark metric -> the name the workload's issue uses
    probe: str       # fresh-interpreter set-up: import and a first call
    notes: list = field(default_factory=list)


def _probe(imports: str, call: str) -> str:
    return ("import time\n"
            "t0 = time.perf_counter()\n"
            f"{imports}\n"
            f"{call}\n"
            "print(time.perf_counter() - t0)\n")


# ---------------------------------------------------------------------------
# checking: corpus and loop-ladder


def check_text(text: str, fname: str, limit_s: float):
    """Parse and check under a deadline with a fresh SolverConfig, as
    `rsc check` does in its own process: no query cache crosses inputs.
    Returns the CheckResult, or None when the deadline passed first."""
    from rsccore import checker, frontend, solver
    try:
        with deadline(limit_s):
            return checker.check_program(
                frontend.parse_program(text, fname), solver.SolverConfig())
    except DeadlineExceeded:
        return None


def check_output(result) -> str:
    """Verdict, rendered diagnostics and the rsc/solution/v1 document."""
    sol = result.assignment.to_json(result.registry) \
        if result.assignment else {}
    return json.dumps({
        "verdict": result.verdict,
        "diagnostics": [d.render() for d in result.diagnostics],
        "solution": {"schema": "rsc/solution/v1", "kvars": sol},
    }, sort_keys=True)


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())["files"]


CHECK_ALIASES = {
    "input_ms_p50": "verdict_ms_p50", "input_ms_p90": "verdict_ms_p90",
    "work_per_s": "verdicts_per_s",
}

CHECK_PROBE = _probe(
    "from rsccore.frontend import parse_program\n"
    "from rsccore.checker import check_program\n"
    "from rsccore.solver import SolverConfig",
    "check_program(parse_program(open('corpus/typeof.rsc').read(),"
    " 'corpus/typeof.rsc'), SolverConfig())")


def _corpus_item(path: Path, expect: dict) -> Item:
    text = path.read_text()
    fname = f"corpus/{path.name}"

    def call() -> Outcome:
        r = check_text(text, fname, CORPUS_DEADLINE_S)
        if r is None:
            return Outcome("undecided", False, False, 0, "deadline")
        ok = r.verdict == expect["verdict"]
        if ok and expect["line"] is not None:
            ok = any(d.span.line == expect["line"] for d in r.errors())
        return Outcome(check_output(r), True, ok, 1,
                       "" if ok else f"expected {expect}")

    return Item(fname, call)


def corpus_workload(seed: int) -> Workload:
    """Every corpus file once per pass.  The corpus is fixed, so the seed
    only rotates the order in which files are checked."""
    manifest = load_manifest()
    paths = sorted(CORPUS.glob("*.rsc"))
    missing = [p.name for p in paths if p.name not in manifest]
    if missing:
        raise GeneratorBug(f"corpus manifest lacks {missing}")
    start = seed % len(paths)
    paths = paths[start:] + paths[:start]
    return Workload("corpus", [_corpus_item(p, manifest[p.name])
                               for p in paths],
                    "verdicts", CHECK_ALIASES, CHECK_PROBE)


def _ladder_truth(prog, arrays: list) -> str:
    """The verdict the interpreters imply: 'verified' when every run of
    both machines terminates, 'errors' when some run reads out of
    bounds.  Anything else is a generator bug."""
    from rsccore import frontend, semantics, ssa
    sp, _ = ssa.ssa_program(frontend.parse_program(prog.source, prog.name))
    argsets = [[a, c] for a in arrays for c in (True, False)] \
        if prog.takes_flag else [[a] for a in arrays]
    stuck = {}
    for machine in ("frsc", "irsc"):
        stuck[machine] = []
        for args in argsets:
            r = semantics.run(sp, entry="f", args=args,
                              fuel=SIM_FUEL, machine=machine)
            if r.status == "stuck" and "out of bounds" in r.reason:
                stuck[machine].append(json.dumps(args))
            elif r.status != "terminal":
                raise GeneratorBug(f"{prog.name} on {machine} {args}:"
                                   f" {r.status} {r.reason}")
    if stuck["frsc"] != stuck["irsc"]:
        raise GeneratorBug(f"{prog.name}: machines disagree {stuck}")
    if prog.safe and stuck["frsc"]:
        raise GeneratorBug(f"safe twin {prog.name} stuck on"
                           f" {stuck['frsc']}")
    if not prog.safe and not stuck["frsc"]:
        raise GeneratorBug(f"off-by-one twin {prog.name} never stuck")
    return "errors" if stuck["frsc"] else "verified"


def _ladder_item(prog, truth: str) -> Item:
    fname = f"loop-ladder/{prog.name}.rsc"

    def call() -> Outcome:
        r = check_text(prog.source, fname, LADDER_DEADLINE_S)
        if r is None:
            return Outcome("undecided", False, False, 0, "deadline")
        ok = r.verdict == truth
        if ok and truth == "errors":
            ok = any(d.span.line in prog.read_lines for d in r.errors())
        return Outcome(check_output(r), True, ok, 1,
                       "" if ok else f"interpreters say {truth}")

    return Item(prog.name, call)


def ladder_workload(seed: int) -> Workload:
    arrays = ladder_arrays(seed)
    items = [_ladder_item(p, _ladder_truth(p, arrays))
             for p in ladder_programs()]
    return Workload(
        "loop-ladder", items, "verdicts", CHECK_ALIASES, CHECK_PROBE,
        notes=[f"deadline {LADDER_DEADLINE_S} s per check;"
               f" ground truth from {len(arrays)} arrays on both machines"])


# ---------------------------------------------------------------------------
# simulate-random


def _min_index(a: list) -> int:
    return a.index(min(a)) if a else -1


def _head0(a: list) -> int:
    return a[0] if a else 0


def _add_if_num(x) -> int:
    return 1 + x if isinstance(x, int) else 1


# The corpus simulation fixtures of the acceptance suite; the expected
# terminal value is computed in Python, None for top-level bodies.
SIM_FIXTURES = (
    ("minindex.rsc", "minIndex", [[3, 1, 2]], _min_index),
    ("minindex.rsc", "minIndex", [[]], _min_index),
    ("minindex.rsc", "minIndex", [[9, 4, 6, 2, 8]], _min_index),
    ("head.rsc", "head0", [[4, 5]], _head0),
    ("head.rsc", "head0", [[]], _head0),
    ("typeof.rsc", "addIfNum", [11], _add_if_num),
    ("typeof.rsc", "addIfNum", ["s"], _add_if_num),
    ("field_ghost.rsc", None, None, None),
    ("field.rsc", None, None, None),
    ("cast_flags.rsc", None, None, None),
)


def _sim_item(name: str, text: str, entry, args, expect) -> Item:
    def call() -> Outcome:
        from rsccore import frontend, semantics, ssa
        sp, theta = ssa.ssa_program(frontend.parse_program(text, name))
        rep = semantics.simulate(sp, theta, entry=entry, args=args,
                                 fuel=SIM_FUEL)
        ok = rep.status == "ok" and rep.frsc_steps <= rep.irsc_steps and \
            (expect is None or rep.value == str(expect))
        return Outcome(json.dumps(rep.to_json(), sort_keys=True),
                       rep.status != "out-of-fuel", ok, rep.irsc_steps,
                       "" if ok else f"expected ok, value {expect}")

    return Item(name, call)


def sim_workload(seed: int) -> Workload:
    """The corpus fixtures and the first programs of the acceptance
    suite's random stream.  The inputs are fixed, so the seed only rotates
    their order."""
    items = []
    for fname, entry, args, ref in SIM_FIXTURES:
        label = f"corpus/{fname}" + (f":{entry}{json.dumps(args)}"
                                     if entry else "")
        items.append(_sim_item(label, (CORPUS / fname).read_text(), entry,
                               args, ref(*args) if ref else None))
    for n, src in enumerate(sim_programs()):
        items.append(_sim_item(f"random-{n:02d}", src, None, None, None))
    start = seed % len(items)
    return Workload(
        "simulate-random", items[start:] + items[:start], "source steps",
        {"input_ms_p50": "sim_ms_p50", "input_ms_p90": "sim_ms_p90",
         "work_per_s": "sim_source_steps_per_s"},
        _probe("from rsccore.frontend import parse_program\n"
               "from rsccore.semantics import simulate\n"
               "from rsccore.ssa import ssa_program",
               "simulate(*ssa_program(parse_program("
               "'var a = 1;\\nvar b = a + 2;', '<setup>')))"))


# ---------------------------------------------------------------------------
# interp-run


def _interp_item(size: int, arr: list, machine: str, min_sp, head_sp) -> Item:
    def call() -> Outcome:
        from rsccore import semantics
        r1 = semantics.run(min_sp, entry="minIndex", args=[arr],
                           fuel=RUN_FUEL, machine=machine)
        r2 = semantics.run(head_sp, entry="head0", args=[arr],
                           fuel=RUN_FUEL, machine=machine)
        ok = (r1.status, r1.value) == ("terminal", _min_index(arr)) and \
            (r2.status, r2.value) == ("terminal", _head0(arr))
        out = f"minIndex {r1.status} {r1.value} {r1.steps};" \
              f" head0 {r2.status} {r2.value} {r2.steps}"
        return Outcome(out, "terminal" == r1.status == r2.status, ok,
                       r1.steps + r2.steps, "" if ok else out)

    return Item(f"n{size}-{machine}", call, machine)


def interp_workload(seed: int) -> Workload:
    """minIndex and head0 over seeded arrays of fixed sizes on both
    machines, no simulation.  The sizes are fixed so that every seed does
    the same number of steps."""
    from rsccore import frontend, ssa
    rng = random.Random(f"interp-run/{seed}")
    min_sp, _ = ssa.ssa_program(frontend.parse_program(
        (CORPUS / "minindex.rsc").read_text(), "corpus/minindex.rsc"))
    head_sp, _ = ssa.ssa_program(frontend.parse_program(
        (CORPUS / "head.rsc").read_text(), "corpus/head.rsc"))
    items = []
    for size in INTERP_SIZES:
        arr = [rng.randrange(-10**6, 10**6) for _ in range(size)]
        for machine in ("frsc", "irsc"):
            items.append(_interp_item(size, arr, machine, min_sp, head_sp))
    return Workload(
        "interp-run", items, "machine steps",
        {"work_per_s": "frsc_steps_per_s + irsc_steps_per_s"},
        _probe("from rsccore.frontend import parse_program\n"
               "from rsccore.semantics import run\n"
               "from rsccore.ssa import ssa_program",
               "run(ssa_program(parse_program(open('corpus/minindex.rsc')"
               ".read(), 'corpus/minindex.rsc'))[0], entry='minIndex',"
               " args=[[3, 1, 2]])"))


WORKLOADS = {
    "corpus": corpus_workload,
    "loop-ladder": ladder_workload,
    "simulate-random": sim_workload,
    "interp-run": interp_workload,
}
