"""Acceptance criteria, one test per criterion, each printing a PASS line
on success (run with -v -s for the full report).

Criterion 3's external-solver leg and criterion 6's differential leg are
exercised when an SMT-LIB2 solver is configured (RSC_SOLVER_CMD or a z3 /
cvc5 on PATH) and skipped otherwise, as their wording provides."""

import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from conftest import CORPUS, ROOT, check, external_solver_cmd, parse, parse_text

from rsccore.infer import preds_equivalent
from rsccore.semantics import run, simulate
from rsccore.solver import Query, SolverConfig, check_valid
from rsccore.ssa import ssa_program
from rsccore.syntax import (
    PAtom, PNot, TBuiltin, TConst, TUF, TValueVar, TVar, p_and, p_eq,
)

V = TValueVar()


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {status} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _kid(result, pred):
    for kid, info in result.registry.infos.items():
        if pred(info.origin):
            return kid, info
    raise AssertionError("kvar not found")


def _idx_pred(aname):
    return p_and(PAtom(TBuiltin("le", (TConst(0), V))),
                 PAtom(TBuiltin("lt", (V, TUF("len", (TVar(aname),))))))


def test_criterion_1_positive_corpus_and_solutions():
    """reduce+minIndex, head/head0, the two-phase overload, the while-form
    reduce, and the typeof example verify with the internal solver, each
    in under 5 seconds; the inferred instantiations match the expected
    solutions up to logical equivalence."""
    files = ["minindex.rsc", "head.rsc", "overload_reduce.rsc",
             "ssa_reduce.rsc", "typeof.rsc"]
    results = {}
    for name in files:
        t0 = time.time()
        r = check(CORPUS / name)
        dt = time.time() - t0
        assert r.verdict == "verified", \
            (name, [d.render() for d in r.errors()[:2]])
        assert dt < 5.0, f"{name} took {dt:.1f}s"
        results[name] = r

    r = results["minindex.rsc"]
    kid_a, info_a = _kid(r, lambda o: o[:3] == ("tyvar", "minIndex", "A"))
    kid_b, info_b = _kid(r, lambda o: o[:3] == ("tyvar", "minIndex", "B"))
    assert preds_equivalent(info_a.scope, info_a.base,
                            r.assignment.solution(kid_a),
                            PAtom(TConst(True)), r.config)
    assert preds_equivalent(info_b.scope, info_b.base,
                            r.assignment.solution(kid_b),
                            _idx_pred("a"), r.config)

    # loop joins: the strongest derivable invariant is 0<=v<=len(a)
    # (at loop entry nothing rules out an empty array, so the strict form
    # is not derivable); under the loop guard -- everywhere the invariant
    # is used -- it is exactly the valid-index form 0<=v<len(a).  The
    # accumulator join is true.
    r2 = results["ssa_reduce.rsc"]
    kid_i, info_i = _kid(r2, lambda o: o == ("phi", "reduce", "i0"))
    kid_r, info_r = _kid(r2, lambda o: o == ("phi", "reduce", "r0"))
    sol_i = r2.assignment.solution(kid_i)
    guarded = info_i.scope.guard(PAtom(
        TBuiltin("lt", (V, TUF("len", (TVar("a"),))))))
    assert preds_equivalent(guarded, info_i.base, sol_i, _idx_pred("a"),
                            r2.config)
    le_form = p_and(PAtom(TBuiltin("le", (TConst(0), V))),
                    PAtom(TBuiltin("le", (V, TUF("len", (TVar("a"),))))))
    assert preds_equivalent(info_i.scope, info_i.base, sol_i, le_form,
                            r2.config)
    assert preds_equivalent(info_r.scope, info_r.base,
                            r2.assignment.solution(kid_r),
                            PAtom(TConst(True)), r2.config)
    _report("1: positive verdict corpus + expected solutions", True)


def test_criterion_2_negative_corpus():
    """Guard-deleted head0, the three bad Field clients, and the
    undefined-arithmetic program are rejected with a diagnostic at the
    listed line, using the internal solver; the constant-size constructor
    cases decide internally."""
    cases = {
        "bad_head0.rsc": 8,
        "bad_field_getdensity.rsc": 35,
        "bad_field_ctor.rsc": 28,
        "bad_field_reset.rsc": 29,
        "bad_undefined.rsc": 2,
    }
    for name, line in sorted(cases.items()):
        r = check(CORPUS / name)
        assert r.verdict == "errors", name
        assert any(d.span.line == line for d in r.errors()), \
            (name, [(d.span.line, d.message) for d in r.errors()])
    # the constant-size constructor positive twin decides internally too
    ok = check(CORPUS / "field_ghost.rsc")
    assert ok.verdict == "verified"
    _report("2: negative verdict corpus at listed lines", True)


def test_criterion_3_nonlinear_field_ghost_internal():
    """The two-dimensional-grid index-safety methods verify with the
    internal solver on the ghost-lemma corpus variant, within 30
    seconds."""
    t0 = time.time()
    r = check(CORPUS / "field_ghost.rsc")
    dt = time.time() - t0
    assert r.verdict == "verified", [d.render() for d in r.errors()[:3]]
    assert dt < 30.0
    _report("3: nonlinear Field methods via ghost lemmas (internal)",
            True, f"{dt:.1f}s")


@pytest.mark.skipif(external_solver_cmd() is None,
                    reason="no external SMT solver configured")
def test_criterion_3_nonlinear_field_external():
    cfg = SolverConfig(backend="external", command=external_solver_cmd(),
                       timeout_ms=20_000)
    t0 = time.time()
    from rsccore.checker import check_program
    r = check_program(parse(CORPUS / "field.rsc"), cfg)
    dt = time.time() - t0
    assert r.verdict == "verified", [d.render() for d in r.errors()[:3]]
    assert dt < 30.0
    _report("3b: nonlinear Field methods via external solver", True,
            f"{dt:.1f}s")


SIM_FIXTURES = [
    ("minindex.rsc", "minIndex", [[3, 1, 2]]),
    ("minindex.rsc", "minIndex", [[]]),
    ("minindex.rsc", "minIndex", [[9, 4, 6, 2, 8]]),
    ("head.rsc", "head0", [[4, 5]]),
    ("head.rsc", "head0", [[]]),
    ("ssa_reduce.rsc", "reduce", None),  # needs a closure: skipped
    ("typeof.rsc", "addIfNum", [11]),
    ("typeof.rsc", "addIfNum", ["s"]),
    ("field_ghost.rsc", None, None),
    ("field.rsc", None, None),
    ("cast_flags.rsc", None, None),
]


# sha256 of the criterion-4 reports, one JSON object a line
SIM_REPORTS_SHA256 = \
    "eb84a7bad51ab3e3d96ae2d8a15d287ccd3ba5f618749c6a1d8e520065811f19"


def test_criterion_4_ssa_consistency(monkeypatch):
    """simulate succeeds (no divergence, target steps <= source steps) on
    the corpus and on 200 seeded random straight-line/branching programs
    at fuel 10^4, and the `rsc/sim/v1` reports, step counts and values
    included, are byte-identical to the pinned ones.  No configuration
    met on the way has a shape the runtime translation cannot render
    (`TranslateGap`)."""
    gaps = []
    sim = sys.modules["rsccore.semantics.simulate"]
    monkeypatch.setattr(sim.TranslateGap, "__init__",
                        lambda self, *args: gaps.append(args))
    count = 0
    reports = []
    for name, entry, args in SIM_FIXTURES:
        if entry == "reduce":
            continue
        p = parse(CORPUS / name)
        if entry is None and p.top is None:
            continue
        sp, theta = ssa_program(p)
        rep = simulate(sp, theta, entry=entry, args=args, fuel=10_000)
        reports.append(json.dumps(rep.to_json(), sort_keys=True))
        assert rep.status == "ok", (name, rep.detail)
        assert rep.frsc_steps <= rep.irsc_steps
        count += 1

    from test_semantics import gen_program
    rng = random.Random(20_260_808)
    for i in range(200):
        src = gen_program(rng)
        p = parse_text(src, f"<rand{i}>")
        sp, theta = ssa_program(p)
        rep = simulate(sp, theta, fuel=10_000)
        reports.append(json.dumps(rep.to_json(), sort_keys=True))
        assert rep.status == "ok", (i, rep.detail, src[:300])
        assert rep.frsc_steps <= rep.irsc_steps
        count += 1
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == SIM_REPORTS_SHA256, digest
    assert gaps == []
    _report("4: SSA consistency (corpus + 200 random programs)", True,
            f"{count} simulations")


def test_criterion_5_safety_harness():
    """Every checker-accepted corpus program runs over fixture inputs with
    no stuck state and no failed checked cast within fuel 10^5."""
    accepted = ["minindex.rsc", "head.rsc", "typeof.rsc",
                "field_ghost.rsc", "cast_flags.rsc", "overload_reduce.rsc"]
    fixtures = {
        "minindex.rsc": [("minIndex", [[3, 1, 2]]), ("minIndex", [[]]),
                         ("minIndex", [[5, 5, 5, 1, 9]])],
        "head.rsc": [("head0", [[7]]), ("head0", [[]]),
                     ("head", [[1, 2]])],
        "typeof.rsc": [("addIfNum", [3]), ("addIfNum", ["x"]),
                       ("addIfNum", [True])],
        "field_ghost.rsc": [(None, None)],
        "cast_flags.rsc": [(None, None)],
        "overload_reduce.rsc": [],  # needs function-valued inputs
    }
    ran = 0
    for name in accepted:
        r = check(CORPUS / name)
        assert r.verdict == "verified", name
        sp, _ = ssa_program(parse(CORPUS / name))
        for entry, args in fixtures[name]:
            res = run(sp, entry=entry, args=args, fuel=100_000)
            assert res.status == "terminal", \
                (name, entry, res.status, res.reason)
            ran += 1
    # higher-order overload fixture, executed from source
    src = (CORPUS / "overload_reduce.rsc").read_text() + """
/*@ (acc: number, cur: number, i: number) => number */
function add3(acc, cur, i) { return acc + cur; }
/*@ (a: {v:number[] | 0 < len(v)}) => number */
function sumTail(a) { return $reduce(a, add3); }
/*@ (a: number[]) => number */
function sumAll(a) { return $reduce(a, add3, 0); }
"""
    p = parse_text(src, "overload_run")
    sp, _ = ssa_program(p)
    for entry, args, expect in (("sumAll", [[1, 2, 3]], 6),
                                ("sumTail", [[10, 1, 2]], 13)):
        res = run(sp, entry=entry, args=args, fuel=100_000)
        assert res.status == "terminal" and res.value == expect
        ran += 1
    _report("5: safety harness (no stuck states, no failed casts)", True,
            f"{ran} runs")


def test_criterion_6_solver_unit_suite():
    arr, a, b = TVar("arr"), TVar("a"), TVar("b")
    head = Query.make({"arr": __import__("rsccore.logic", fromlist=["S_ARR"]).S_ARR,
                       "%v": __import__("rsccore.logic", fromlist=["S_INT"]).S_INT},
                      p_and(PAtom(TBuiltin("lt", (TConst(0),
                                                  TUF("len", (arr,))))),
                            p_eq(V, TConst(0))),
                      p_and(PAtom(TBuiltin("le", (TConst(0), V))),
                            PAtom(TBuiltin("lt", (V, TUF("len", (arr,)))))))
    from rsccore.logic import S_ARR, S_INT
    head0 = Query.make({"a": S_ARR, "%v": S_ARR},
                       p_and(PAtom(TBuiltin("lt", (TConst(0),
                                                   TUF("len", (a,))))),
                             p_eq(V, a)),
                       PAtom(TBuiltin("lt", (TConst(0), TUF("len", (V,))))))
    assert check_valid(head).is_valid
    assert check_valid(head0).is_valid
    assert check_valid(Query.make(dict(head.sorts), head.hyp,
                                  PNot(head.goal))).status == "invalid"
    assert check_valid(Query.make(dict(head0.sorts), head0.hyp,
                                  PNot(head0.goal))).status == "invalid"
    cong = Query.make({"a": S_ARR, "b": S_ARR}, p_eq(a, b),
                      p_eq(TUF("len", (a,)), TUF("len", (b,))))
    assert check_valid(cong).is_valid
    x, y = TVar("x"), TVar("y")
    tighten = Query.make(
        {"x": S_INT, "y": S_INT},
        p_and(PAtom(TBuiltin("lt", (x, y))),
              PAtom(TBuiltin("lt", (y, TBuiltin("add", (x, TConst(1))))))),
        PAtom(TConst(False)))
    assert check_valid(tighten).is_valid
    _report("6: solver unit suite", True)


@pytest.mark.skipif(external_solver_cmd() is None,
                    reason="no external SMT solver configured")
def test_criterion_6_differential():
    from test_solver import _random_query
    cmd = external_solver_cmd()
    cfg = SolverConfig(backend="external", command=cmd)
    rng = random.Random(616)
    bad = []
    for i in range(500):
        q = _random_query(rng)
        if check_valid(q).is_valid:
            if check_valid(q, cfg).status == "invalid":
                bad.append(i)
    assert bad == []
    _report("6b: differential agreement on 500 random queries", True)


def test_criterion_7_fixpoint_oracle():
    """Brute-force enumeration over all subsets of qualifier instances for
    the minIndex call-site variables: every satisfying assignment is
    logically equivalent to the fixpoint result, so it is in particular
    the weakest satisfying one."""
    import test_infer
    test_infer.test_brute_force_weakest_solution_oracle()
    _report("7: fixpoint brute-force oracle on minIndex", True)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rsccore.cli", *args], capture_output=True,
        text=True, cwd=str(ROOT), env={"PYTHONPATH": str(ROOT / "src"),
                                       "PATH": "/usr/bin:/bin"})


def test_criterion_8_determinism():
    """--dump-vcs and --dump-solution outputs are byte-identical across
    three consecutive runs."""
    vcs = {_cli("check", "--dump-vcs",
                str(CORPUS / "minindex.rsc")).stdout for _ in range(3)}
    assert len(vcs) == 1
    sols = {_cli("check", "--dump-solution",
                 str(CORPUS / "ssa_reduce.rsc")).stdout for _ in range(3)}
    assert len(sols) == 1
    assert json.loads(sols.pop())["schema"] == "rsc/solution/v1"
    _report("8: determinism of constraint and solution dumps", True)
