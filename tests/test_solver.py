"""Validity-checker tests: the worked verification conditions, constant
folding, congruence, integrality tightening, conservativity, emission
determinism, the subprocess boundary, skeleton interning, the congruence
closure against a quadratic reference, and Fourier-Motzkin against plain
`Fraction` elimination."""

import gc
import os
from fractions import Fraction
import random
import stat
import subprocess
import sys

import pytest

from conftest import CORPUS, ROOT, external_solver_cmd

from rsccore.logic import S_ARR, S_BOOL, S_INT, S_STR, ClassTable, Sort
from rsccore.semantics.evalpred import eval_term
from rsccore.semantics.values import Heap, StuckError, apply_builtin
from rsccore.solver import (
    Query, SolverConfig, Verdict, check_valid, const_fold, emit_smtlib,
    filter_valid,
)
from rsccore.syntax import (
    P_FALSE, P_TRUE, PAtom, PKvar, PNot, TBuiltin, TConst, TUF, TValueVar,
    TVar, p_and, p_eq, p_or,
)

V = TValueVar()


def _q(sorts, hyp, goal):
    return Query.make(sorts, hyp, goal)


def head_vc():
    arr = TVar("arr")
    hyp = p_and(PAtom(TBuiltin("lt", (TConst(0), TUF("len", (arr,))))),
                p_eq(V, TConst(0)))
    goal = p_and(PAtom(TBuiltin("le", (TConst(0), V))),
                 PAtom(TBuiltin("lt", (V, TUF("len", (arr,))))))
    return _q({"arr": S_ARR, "%v": S_INT}, hyp, goal)


def head0_vc():
    a = TVar("a")
    hyp = p_and(PAtom(TBuiltin("lt", (TConst(0), TUF("len", (a,))))),
                p_eq(V, a))
    goal = PAtom(TBuiltin("lt", (TConst(0), TUF("len", (V,)))))
    return _q({"a": S_ARR, "%v": S_ARR}, hyp, goal)


def test_head_vc_valid():
    assert check_valid(head_vc()).is_valid


def test_head0_vc_valid():
    assert check_valid(head0_vc()).is_valid


def test_negated_vcs_invalid():
    q = head_vc()
    neg = Query.make(dict(q.sorts), q.hyp, PNot(q.goal))
    v = check_valid(neg)
    assert v.status == "invalid" and v.model
    q0 = head0_vc()
    neg0 = Query.make(dict(q0.sorts), q0.hyp, PNot(q0.goal))
    assert check_valid(neg0).status == "invalid"


def test_euf_congruence_len():
    a, b = TVar("a"), TVar("b")
    q = _q({"a": S_ARR, "b": S_ARR}, p_eq(a, b),
           p_eq(TUF("len", (a,)), TUF("len", (b,))))
    assert check_valid(q).is_valid


def test_integrality_tightening():
    x, y = TVar("x"), TVar("y")
    hyp = p_and(PAtom(TBuiltin("lt", (x, y))),
                PAtom(TBuiltin("lt", (y, TBuiltin("add", (x, TConst(1)))))))
    q = _q({"x": S_INT, "y": S_INT}, hyp, PAtom(TConst(False)))
    assert check_valid(q).is_valid


def test_simple_invalid_with_model():
    q = _q({"%v": S_INT}, p_eq(V, TConst(0)), p_eq(V, TConst(1)))
    v = check_valid(q)
    assert v.status == "invalid"
    assert "%v = 0" in v.model


def test_verdict_cache_tells_apart_queries_that_print_alike():
    """Queries that print the same but differ as values keep their own
    verdicts in one config: a program variable `v` beside the value
    variable, and the literal `1` beside `true`."""
    assert TConst(1) != TConst(True) and TConst(0) != TConst(False)
    assert PAtom(TConst(1)) != P_TRUE
    x, v = TVar("x"), TVar("v")
    cfg = SolverConfig()
    sorts = {"v": S_INT, "%v": S_INT}
    assert check_valid(_q(sorts, p_eq(v, TConst(0)), p_eq(v, TConst(0))),
                       cfg).status == "valid"
    assert check_valid(_q(sorts, p_eq(V, TConst(0)), p_eq(v, TConst(0))),
                       cfg).status == "invalid"
    sorts = {"x": S_INT}
    assert check_valid(_q(sorts, p_eq(x, TConst(1)), p_eq(x, TConst(1))),
                       cfg).status == "valid"
    assert check_valid(_q(sorts, p_eq(x, TConst(1)), p_eq(x, TConst(True))),
                       cfg).status == "unknown"


# ---------------------------------------------------------------------------
# one hypothesis, many goals


def _lt(a, b):
    return PAtom(TBuiltin("lt", (a, b)))


def _wide_hypothesis(width):
    """Integer sorts and a hypothesis of 2**width boolean branches, each
    refuted by the contradiction `y < y`."""
    xs = [TVar(f"x{i}") for i in range(width)]
    y = TVar("y")
    cases = [p_or(_lt(x, TConst(0)), _lt(TConst(-1), x)) for x in xs]
    sorts = {x.name: S_INT for x in xs}
    sorts["y"] = S_INT
    return sorts, p_and(*cases, _lt(y, y))


def test_branch_limit_counts_hypothesis_branches():
    sorts, hyp = _wide_hypothesis(13)
    v = check_valid(_q(sorts, hyp, P_FALSE))
    assert v == Verdict("unknown", reason="boolean branch limit exceeded")
    # a goal of true leaves no branch to refute at all
    assert check_valid(_q(sorts, hyp, P_TRUE)) == Verdict("valid")


def test_branch_limit_counts_hypothesis_goal_combinations():
    """128 hypothesis branches are within the limit, and so are the 64
    branches of the negated goal; their 8192 combinations are not."""
    sorts, hyp = _wide_hypothesis(7)
    zs = [TVar(f"z{i}") for i in range(6)]
    sorts.update({z.name: S_INT for z in zs})
    goal = P_FALSE
    for z in zs:
        goal = p_or(goal, p_and(_lt(z, TConst(0)), _lt(TConst(5), z)))
    cfg = SolverConfig()
    assert check_valid(_q(sorts, hyp, P_FALSE), cfg) == Verdict("valid")
    assert check_valid(_q(sorts, hyp, goal), cfg) == \
        Verdict("unknown", reason="boolean branch limit exceeded")


def test_unlowerable_hypothesis_gives_every_goal_its_reason():
    """A refinement variable in the hypothesis makes every goal Unknown
    with the hypothesis's reason, even a goal that cannot be lowered
    itself and the goal true."""
    x, z = TVar("x"), TVar("z")
    sorts = {"x": S_INT}
    hyp = p_and(p_eq(x, TConst(0)), PKvar(0, ()))
    cfg = SolverConfig()
    for goal in (p_eq(x, TConst(0)), P_FALSE, p_eq(z, TConst(1)), P_TRUE):
        assert check_valid(_q(sorts, hyp, goal), cfg) == Verdict(
            "unknown", reason="refinement variable reached the solver")


def test_hypothesis_folding_to_false_makes_every_goal_valid():
    """Every goal that lowers is Valid; a goal that does not lower keeps
    its own Unknown reason."""
    x, z = TVar("x"), TVar("z")
    sorts = {"x": S_INT}
    hyp = p_and(p_eq(x, TConst(1)), _lt(TConst(1), TConst(0)))
    cfg = SolverConfig()
    for goal in (P_FALSE, p_eq(x, TConst(2)), P_TRUE, _lt(x, x)):
        assert check_valid(_q(sorts, hyp, goal), cfg) == Verdict("valid")
    assert check_valid(_q(sorts, hyp, p_eq(z, TConst(1))), cfg) == \
        Verdict("unknown", reason="no sort for symbol 'z'")


def test_goals_under_one_hypothesis_in_either_order():
    """Under one config, the goals asked under one hypothesis get the
    verdicts that fresh configs give, in whichever order they come."""
    x, n = TVar("x"), TVar("n")
    sorts = {"x": S_INT, "n": S_INT}
    hyp = p_and(PAtom(TBuiltin("le", (TConst(0), x))), _lt(x, n))
    goals = [
        _lt(x, TBuiltin("add", (n, TConst(1)))),
        p_eq(x, TConst(0)),
        PAtom(TBuiltin("le", (TConst(0), TBuiltin("mul", (x, n))))),
        p_eq(TVar("z"), TConst(0)),
        P_TRUE,
        P_FALSE,
    ]
    fresh = [check_valid(_q(sorts, hyp, g), SolverConfig()) for g in goals]
    assert [v.status for v in fresh] == ["valid", "invalid", "unknown",
                                         "unknown", "valid", "invalid"]
    for order in (goals, goals[::-1]):
        cfg = SolverConfig()
        got = {g: check_valid(_q(sorts, hyp, g), cfg) for g in order}
        assert [got[g] for g in goals] == fresh


def test_one_hypothesis_under_two_sort_tables():
    x = TVar("x")
    hyp = goal = p_eq(x, TConst(0))
    cfg = SolverConfig()
    assert check_valid(_q({}, hyp, goal), cfg) == \
        Verdict("unknown", reason="no sort for symbol 'x'")
    assert check_valid(_q({"x": S_INT}, hyp, goal), cfg) == Verdict("valid")


def test_goal_true_is_valid():
    x = TVar("x")
    sorts = {"x": S_INT}
    for hyp in (P_TRUE, p_eq(x, TConst(1)), _lt(TConst(0), x)):
        assert check_valid(_q(sorts, hyp, P_TRUE)) == Verdict("valid")


def test_const_fold_grid_size():
    t = TBuiltin("mul", (TBuiltin("add", (TConst(3), TConst(2))),
                         TBuiltin("add", (TConst(7), TConst(2)))))
    assert const_fold(t) == TConst(45)


def test_const_fold_additive_identity():
    t = TBuiltin("add", (TVar("x"), TConst(0)))
    assert const_fold(t) == TVar("x")


def test_const_fold_symbolic_product_unchanged():
    t = TBuiltin("mul", (TBuiltin("add", (TVar("y"), TConst(1))),
                         TBuiltin("add", (TVar("w"), TConst(2)))))
    assert const_fold(t) == t


def test_string_literal_distinctness():
    w = TVar("w")
    hyp = p_eq(TUF("ttag", (w,)), TConst("number"))
    q = _q({"w": Sort("tyvar", "A")}, hyp,
           p_eq(TUF("ttag", (w,)), TConst("string")))
    assert check_valid(q).status == "invalid"


def test_nonlinear_goal_is_unknown_not_invalid():
    y, w = TVar("y"), TVar("w")
    hyp = p_and(PAtom(TBuiltin("le", (TConst(0), y))),
                PAtom(TBuiltin("lt", (TConst(0), w))))
    goal = PAtom(TBuiltin("le", (TConst(0), TBuiltin("mul", (y, w)))))
    v = check_valid(_q({"y": S_INT, "w": S_INT}, hyp, goal))
    assert v.status == "unknown"


def _random_query(rng: random.Random):
    names = ["x", "y", "z"]
    arrays = ["a", "b"]
    sorts = {n: S_INT for n in names}
    sorts.update({n: S_ARR for n in arrays})
    sorts["%v"] = S_INT

    def term(depth=0):
        r = rng.random()
        if depth > 2 or r < 0.35:
            return rng.choice([TVar(rng.choice(names)),
                               TConst(rng.randrange(-4, 8)),
                               TUF("len", (TVar(rng.choice(arrays)),))])
        op = rng.choice(["add", "sub", "mul"])
        return TBuiltin(op, (term(depth + 1), term(depth + 1)))

    def atom():
        op = rng.choice(["lt", "le", "eq", "ne", "ge", "gt"])
        return PAtom(TBuiltin(op, (term(), term())))

    hyp = p_and(*[atom() for _ in range(rng.randrange(1, 4))])
    goal = atom()
    return _q(sorts, hyp, goal)


def test_conservativity_on_random_suite():
    """Under a satisfiable hypothesis, a Valid answer and a Valid answer
    for the negated goal cannot coexist."""
    rng = random.Random(97)
    valids = 0
    for _ in range(250):
        q = _random_query(rng)
        v = check_valid(q)
        if v.is_valid:
            falso = Query.make(dict(q.sorts), q.hyp, PAtom(TConst(False)))
            if check_valid(falso).is_valid:
                continue  # inconsistent hypothesis: both vacuously valid
            valids += 1
            neg = Query.make(dict(q.sorts), q.hyp, PNot(q.goal))
            assert not check_valid(neg).is_valid
    assert valids > 0  # the suite exercises the valid path


def test_emit_smtlib_deterministic():
    q = head_vc()
    texts = {emit_smtlib(q) for _ in range(3)}
    assert len(texts) == 1
    assert "(check-sat)" in texts.pop()


def test_emit_smtlib_declares_ttag_uninterpreted():
    w = TVar("w")
    q = _q({"w": Sort("tyvar", "A")},
           p_eq(TUF("ttag", (w,)), TConst("number")),
           p_eq(TUF("ttag", (w,)), TConst("number")))
    text = emit_smtlib(q)
    assert "(declare-fun |ttag@TV_A| (TV_A) Str)" in text


def test_emit_smtlib_empty_hypothesis():
    q = _q({"%v": S_INT}, p_and(), p_eq(V, V))
    text = emit_smtlib(q)
    assert "(assert true)" in text


def test_external_backend_subprocess_protocol(tmp_path):
    """The wire format: a stub solver that always answers unsat must turn
    into a Valid verdict; one that answers sat into Invalid."""
    for answer, status in (("unsat", "valid"), ("sat", "invalid"),
                           ("unknown", "unknown")):
        stub = tmp_path / f"solver_{answer}.py"
        stub.write_text("import sys\n"
                        "data = sys.stdin.read()\n"
                        "assert '(check-sat)' in data\n"
                        f"print({answer!r})\n")
        cfg = SolverConfig(backend="external",
                           command=f"{sys.executable} {stub}")
        v = check_valid(head_vc(), cfg)
        assert v.status == status, (answer, v)


def test_external_backend_refutes_nothing(tmp_path):
    """An external answer carries no valuation, so a batch under one
    hypothesis asks every goal."""
    stub = tmp_path / "solver_sat.py"
    stub.write_text("import sys\nsys.stdin.read()\nprint('sat')\n")
    cfg = SolverConfig(backend="external", command=f"{sys.executable} {stub}")
    x = TVar("x")
    goals = [PAtom(TBuiltin("lt", (x, TConst(0)))),
             PAtom(TBuiltin("le", (x, TConst(3))))]
    verdicts = filter_valid(Query.per_goal({"x": S_INT}, p_eq(x, TConst(5)),
                                           goals), cfg)
    assert [(v.status, v.valuation) for v in verdicts] == \
        [("invalid", None), ("invalid", None)]


def test_external_backend_missing_command():
    cfg = SolverConfig(backend="external", command=None)
    assert check_valid(head_vc(), cfg).status == "unknown"


@pytest.mark.skipif(external_solver_cmd() is None,
                    reason="no external SMT solver configured")
def test_differential_internal_vs_external():
    """No internal-Valid / external-sat disagreements on a random
    QF-LIA+EUF suite."""
    cmd = external_solver_cmd()
    cfg = SolverConfig(backend="external", command=cmd)
    rng = random.Random(4242)
    disagreements = []
    for i in range(500):
        q = _random_query(rng)
        if check_valid(q).is_valid:
            ext = check_valid(q, cfg)
            if ext.status == "invalid":
                disagreements.append(i)
    assert disagreements == []


# ---------------------------------------------------------------------------
# generative properties


from hypothesis import assume, example, given, settings, strategies as st

_const_term = st.recursive(
    st.integers(-9, 9).map(TConst),
    lambda sub: st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub)
    .map(lambda t: TBuiltin(t[0], (t[1], t[2]))),
    max_leaves=8)


@given(_const_term)
@settings(max_examples=200, deadline=None)
def test_const_fold_agrees_with_evaluation(t):
    """Folding a constant term gives exactly what the runtime evaluator
    computes for it."""
    from rsccore.semantics.evalpred import eval_term
    from rsccore.semantics.values import Heap
    folded = const_fold(t)
    assert isinstance(folded, TConst)
    assert folded.value == eval_term(t, {}, Heap(), ClassTable())


_small_rows = st.lists(
    st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
              st.integers(-6, 6),
              st.sampled_from(["le", "lt", "eq"])),
    min_size=1, max_size=5)


@given(_small_rows)
@settings(max_examples=300, deadline=None)
def test_fourier_motzkin_unsat_is_sound(rows):
    """When elimination reports unsat over two integer unknowns, brute
    force over a generous box agrees there is no integer solution."""
    from fractions import Fraction
    from rsccore.solver.fm import solve as fm_solve
    from rsccore.solver.normal import Skel
    x = Skel("var", "x", (), "int")
    y = Skel("var", "y", (), "int")
    sys_rows = []
    for (cx, cy), b, op in rows:
        coeffs = {}
        if cx:
            coeffs[x] = Fraction(cx)
        if cy:
            coeffs[y] = Fraction(cy)
        sys_rows.append((coeffs, Fraction(-b), op))
    r = fm_solve(sys_rows)
    if r[0] != "unsat":
        return
    for vx in range(-30, 31):
        for vy in range(-30, 31):
            ok = True
            for (cx, cy), b, op in rows:
                lhs = cx * vx + cy * vy + b
                if op == "le" and not lhs <= 0:
                    ok = False
                elif op == "lt" and not lhs < 0:
                    ok = False
                elif op == "eq" and lhs != 0:
                    ok = False
                if not ok:
                    break
            assert not ok, f"fm said unsat but x={vx}, y={vy} satisfies"


# the oracle keeps every repeated row, so an elimination can multiply
# them past any size it finishes in; it gives up beyond this many
_ORACLE_ROW_CAP = 3000


def _fraction_fm_solve(rows_in: list):
    """Reference oracle: Fourier-Motzkin as it was before integer rows,
    eliminating over `Fraction`s and keeping every repeated row.  None
    when an elimination would leave more than `_ORACLE_ROW_CAP` rows."""
    from fractions import Fraction
    from math import floor, gcd

    def tighten(coeffs, bound, strict):
        bound = Fraction(bound)
        if not coeffs:
            if strict:
                return ({}, bound - 1) if bound == int(bound) else \
                    ({}, Fraction(floor(bound)))
            return ({}, bound)
        scale = 1
        for d in [Fraction(c).denominator for c in coeffs.values()] + \
                [bound.denominator]:
            scale = scale * d // gcd(scale, d)
        ic = {k: int(c * scale) for k, c in coeffs.items()}
        ib = bound * scale
        if strict:
            ib = Fraction(int(ib) - 1) if ib == int(ib) else \
                Fraction(floor(ib))
        g = 0
        for c in ic.values():
            g = gcd(g, abs(c))
        if g > 1:
            ic = {k: c // g for k, c in ic.items()}
            ib = Fraction(floor(Fraction(ib) / g))
        return (ic, Fraction(ib))

    rows = []
    for coeffs, bound, op in rows_in:
        if op == "eq":
            rows.append(tighten(dict(coeffs), bound, False))
            rows.append(tighten({k: -c for k, c in coeffs.items()}, -bound,
                                False))
        else:
            rows.append(tighten(dict(coeffs), bound, op == "lt"))
    eliminated = []
    while True:
        if any(not c and b < 0 for c, b in rows):
            return ("unsat",)
        rows = [r for r in rows if r[0]]
        signs = {}
        for c_, _ in rows:
            for k, c in c_.items():
                count = signs.setdefault(k, [0, 0])
                if c > 0:
                    count[0] += 1
                elif c < 0:
                    count[1] += 1
        if not signs:
            break
        var = min(signs, key=lambda k: (signs[k][0] * signs[k][1], str(k)))
        uppers = [r for r in rows if r[0].get(var, 0) > 0]
        lowers = [r for r in rows if r[0].get(var, 0) < 0]
        new_rows = [r for r in rows if r[0].get(var, 0) == 0]
        if len(new_rows) + len(uppers) * len(lowers) > _ORACLE_ROW_CAP:
            return None
        eliminated.append((var, lowers, uppers))
        for up, ub in uppers:
            cu = up[var]
            for lo, lb in lowers:
                cl = -lo[var]
                coeffs = {}
                for k, c in up.items():
                    if k != var:
                        coeffs[k] = coeffs.get(k, 0) + Fraction(c, cu)
                for k, c in lo.items():
                    if k != var:
                        coeffs[k] = coeffs.get(k, 0) + Fraction(c, cl)
                coeffs = {k: c for k, c in coeffs.items() if c != 0}
                new_rows.append(tighten(coeffs, Fraction(ub, cu) +
                                        Fraction(lb, cl), False))
        rows = new_rows
    model = {}

    def val(expr_coeffs, bound):
        acc = bound
        for k, c in expr_coeffs.items():
            acc -= c * model.setdefault(k, Fraction(0))
        return acc

    for var, lowers, uppers in reversed(eliminated):
        lo_bound = hi_bound = None
        for c_, b_ in uppers:
            rest = {k: c for k, c in c_.items() if k != var}
            b = Fraction(val(rest, b_), c_[var])
            hi_bound = b if hi_bound is None else min(hi_bound, b)
        for c_, b_ in lowers:
            rest = {k: c for k, c in c_.items() if k != var}
            b = Fraction(-val(rest, b_), -c_[var])
            lo_bound = b if lo_bound is None else max(lo_bound, b)
        if lo_bound is None and hi_bound is None:
            model[var] = Fraction(0)
        elif lo_bound is None:
            model[var] = Fraction(floor(hi_bound))
        elif hi_bound is None:
            model[var] = Fraction(-floor(-lo_bound))
        else:
            c = Fraction(-floor(-lo_bound))
            model[var] = c if c <= hi_bound else \
                Fraction(lo_bound + hi_bound, 2)
    return ("sat", model)


def _fm_system(nvars):
    """Base rows over `nvars` unknowns, plus copies of them: (row index,
    scale, bound slack, insertion position)."""
    from fractions import Fraction
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=nvars,
                             max_size=nvars),
                    st.integers(-6, 6), st.sampled_from(["le", "lt", "eq"]))
    copy = st.tuples(st.integers(0, 5),
                     st.sampled_from([1, 2, 3, Fraction(1, 2),
                                      Fraction(1, 3)]),
                     st.integers(0, 3), st.integers(0, 20))
    return st.tuples(st.lists(row, min_size=1, max_size=6),
                     st.lists(copy, max_size=16))


def _fm_rows(system) -> list:
    base, copies = system
    keys = [Skel("var", n, (), "int") for n in ("x", "y", "z", "w")]

    def row(coeffs, bound, op, scale=1):
        return ({k: c * scale for k, c in zip(keys, coeffs) if c},
                bound * scale, op)

    rows = [row(*r) for r in base]
    for i, scale, slack, pos in copies:
        coeffs, bound, op = base[i % len(base)]
        rows.insert(pos % (len(rows) + 1),
                    row(coeffs, bound + slack, op, scale))
    return rows


# four rows over three unknowns (the first and the last parallel), each
# copied up to four times, scaled and loosened: repeated rows outnumber
# distinct ones
_HEAVY_FM = ([([1, -1, 0], 2, "le"), ([-1, 0, 1], -1, "le"),
              ([0, 1, -1], 0, "lt"), ([-1, 1, 0], 3, "le")],
             [(0, 2, 1, 0), (0, 3, 0, 5), (0, 1, 2, 9), (1, 1, 3, 1),
              (1, 2, 0, 7), (2, 3, 1, 2), (2, 1, 0, 11), (3, 2, 2, 4),
              (3, 1, 0, 13), (0, 1, 1, 6), (1, 3, 2, 3), (2, 2, 3, 8)])


# six rows over four unknowns whose twelve copies make one elimination
# step of the oracle combine thousands of rows; integer elimination
# merges the copies and finds it unsat at once
_FM_BLOWUP = ([([3, -2, -3, 3], 3, "lt"), ([-3, -3, 0, 1], -2, "lt"),
               ([0, 0, 3, 3], -5, "le"), ([-2, 3, 2, -3], 4, "lt"),
               ([3, 0, -1, -1], 2, "le"), ([-2, 3, -2, -2], 6, "le")],
              [(0, Fraction(1, 2), 2, 6), (1, 3, 1, 16), (3, 1, 3, 19),
               (0, Fraction(1, 2), 2, 8), (5, 3, 1, 4),
               (5, Fraction(1, 2), 0, 12), (3, Fraction(1, 3), 0, 4),
               (1, Fraction(1, 2), 0, 9), (5, Fraction(1, 3), 3, 6),
               (4, 3, 0, 7), (1, Fraction(1, 2), 0, 5), (3, 3, 3, 12)])


def _row_holds(row, model) -> bool:
    coeffs, bound, op = row
    lhs = sum(c * model.get(k, 0) for k, c in coeffs.items())
    return {"le": lhs <= bound, "lt": lhs < bound, "eq": lhs == bound}[op]


@given(st.integers(2, 4).flatmap(_fm_system))
@example(_HEAVY_FM)
@example(_FM_BLOWUP)
@settings(max_examples=400, deadline=None)
def test_fourier_motzkin_matches_fraction_oracle(system):
    """Integer elimination over merged rows gives the outcome and the
    candidate point of plain `Fraction` elimination, on systems whose rows
    repeat, scaled and with looser bounds.  A draw the oracle gives up on
    is rejected, once a `sat` point is seen to satisfy every row."""
    from rsccore.solver.fm import solve as fm_solve
    rows = _fm_rows(system)
    got, want = fm_solve(rows), _fraction_fm_solve(rows)
    if want is None:
        if got[0] == "sat":
            assert all(_row_holds(r, got[1]) for r in rows)
        assume(False)
    assert got == want


@given(st.integers(-20, 20), st.integers(-9, 9))
@example(-7, 2)
@example(7, -2)
@example(7, 0)
@settings(max_examples=100, deadline=None)
def test_division_folding_matches_runtime(a, b):
    """Both machines' builtins, the predicate evaluator, the constant
    folder and the solver's interpreted arithmetic agree on / and %
    (truncating, dividend-signed, stuck or uninterpreted on zero) and on
    strict equality."""
    heap = Heap()
    x, y = TVar("x"), TVar("y")
    sorts = {"x": S_INT, "y": S_INT}
    pinned = p_and(p_eq(x, TConst(a)), p_eq(y, TConst(b)))
    results = []
    for src, op in (("/", "div"), ("%", "mod")):
        ground = TBuiltin(op, (TConst(a), TConst(b)))
        symbolic = TBuiltin(op, (x, y))
        if b == 0:
            with pytest.raises(StuckError):
                apply_builtin(src, [a, b], heap)
            with pytest.raises(StuckError):
                eval_term(ground, {}, heap, ClassTable())
            assert const_fold(ground) == ground
            for c in (0, 1):
                goal = p_eq(symbolic, TConst(c))
                assert not check_valid(_q(sorts, pinned, goal)).is_valid
            continue
        r = apply_builtin(src, [a, b], heap)
        assert eval_term(ground, {}, heap, ClassTable()) == r
        assert const_fold(ground) == TConst(r)
        goal = p_eq(symbolic, TConst(r))
        assert check_valid(_q(sorts, pinned, goal)).is_valid
        results.append(r)
    if b != 0:
        q, m = results
        assert abs(q) == abs(a) // abs(b)
        assert q * b + m == a
        assert m == 0 or (m < 0) == (a < 0)
    # a boolean never equals a number
    for n, flag in ((1, True), (0, False)):
        eq = TBuiltin("eq", (TConst(n), TConst(flag)))
        assert apply_builtin("===", [n, flag], heap) is False
        assert eval_term(eq, {}, heap, ClassTable()) is False
        assert const_fold(eq) == TConst(False)


# ---------------------------------------------------------------------------
# hash-consed skeletons and the signature-table congruence closure


from rsccore.solver.euf import CongruenceClosure
from rsccore.solver.normal import EufLit, Skel


class _QuadraticClosure:
    """Reference oracle: the closure that rescans every term on each merge
    and compares all pairs of applications until nothing changes."""

    def __init__(self):
        self.parent = {}
        self.uses = {}
        self.terms = set()
        self.diseqs = []
        self.conflict = False

    def add(self, t):
        if t in self.terms:
            return
        self.terms.add(t)
        self.parent[t] = t
        self.uses[t] = []
        for a in t.args:
            self.add(a)
            self.uses[self.find(a)].append(t)

    def find(self, t):
        while self.parent[t] is not t:
            t = self.parent[t]
        return t

    def merge(self, a, b):
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return
        if ra.kind == "const" and rb.kind == "const":
            self.conflict = True
            return
        if rb.kind == "const":
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.uses.setdefault(ra, []).extend(self.uses.pop(rb, []))
        for app in list(self.uses.get(ra, [])):
            for other in list(self.terms):
                if other is app or other.kind != "app":
                    continue
                if other.head == app.head and \
                        len(other.args) == len(app.args) and \
                        self.find(other) is not self.find(app) and all(
                            self.find(x) is self.find(y)
                            for x, y in zip(other.args, app.args)):
                    self.merge(app, other)

    def assert_lit(self, lit):
        if lit.eq:
            self.merge(lit.t1, lit.t2)
        else:
            self.add(lit.t1)
            self.add(lit.t2)
            self.diseqs.append((lit.t1, lit.t2))

    def close(self):
        changed = True
        while changed and not self.conflict:
            changed = False
            apps = [t for t in self.terms if t.kind == "app"]
            for i, a in enumerate(apps):
                for b in apps[i + 1:]:
                    if a.head == b.head and len(a.args) == len(b.args) and \
                            self.find(a) is not self.find(b) and all(
                                self.find(x) is self.find(y)
                                for x, y in zip(a.args, b.args)):
                        self.merge(a, b)
                        changed = True
        if self.conflict:
            return False
        return all(self.find(a) is not self.find(b) for a, b in self.diseqs)


def _partition(cc) -> set:
    classes = {}
    for t in cc.terms:
        classes.setdefault(cc.find(t), set()).add(t)
    return {frozenset(c) for c in classes.values()}


def _var(i):
    return Skel("var", f"x{i}", (), "int")


def _f(a):
    return Skel("app", "f", (a,), "int")


def _g(a, b):
    return Skel("app", "g", (a, b), "int")


def _h(a):
    return Skel("app", "h", (a,), "int")


def _euf_steps(nvars):
    leaves = [_var(i) for i in range(nvars)] + \
        [Skel("const", c, (), "int") for c in (0, 1)]
    terms = st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(sub.map(_f), sub.map(_h),
                              st.tuples(sub, sub).map(lambda ab: _g(*ab))),
        max_leaves=4)
    lit = st.tuples(st.booleans(), terms, terms).map(lambda l: EufLit(*l))
    # a bare term is added without a literal, between the assertions
    return st.lists(st.one_of(lit, terms), min_size=1, max_size=8)


def _f_power(n, a):
    for _ in range(n):
        a = _f(a)
    return a


_X0, _X1, _X2 = _var(0), _var(1), _var(2)


@given(st.integers(3, 4).flatmap(_euf_steps))
@example([EufLit(True, _f_power(3, _X0), _X0),
          EufLit(True, _f_power(5, _X0), _X0),
          EufLit(False, _f(_X0), _X0)])
@example([_f(_g(_f(_X0), _X2)), _f(_g(_f(_X1), _X2)),
          EufLit(True, _X0, _X1)])
@example([EufLit(True, _f(_X0), Skel("const", 0, (), "int")),
          EufLit(True, _f(_X1), Skel("const", 1, (), "int")),
          EufLit(True, _X1, _X0)])
@settings(max_examples=400, deadline=None)
def test_congruence_closure_matches_quadratic_oracle(steps):
    """The signature-table closure agrees with the quadratic one on
    conflict, on close() and, absent a conflict (after which the
    partition is unspecified), on the partition of the terms."""
    cc, oracle = CongruenceClosure(), _QuadraticClosure()
    for step in steps:
        for closure in (cc, oracle):
            if isinstance(step, EufLit):
                closure.assert_lit(step)
            else:
                closure.add(step)
    assert cc.close() == oracle.close()
    assert cc.conflict == oracle.conflict
    assert cc.terms == oracle.terms
    if not oracle.conflict:
        assert _partition(cc) == _partition(oracle)
        assert set(map(frozenset, cc.classes().values())) == \
            _partition(oracle)


def test_classic_congruence_through_check_valid():
    """f(f(f(a))) = a and f(f(f(f(f(a))))) = a imply f(a) = a."""
    a = TVar("a")

    def f(t, n=1):
        for _ in range(n):
            t = TUF("f", (t,))
        return t

    sorts = {"a": S_INT, "%uf:f": S_INT}
    hyp = p_and(p_eq(f(a, 3), a), p_eq(f(a, 5), a))
    assert check_valid(_q(sorts, hyp, p_eq(f(a), a))).is_valid
    assert not check_valid(_q(sorts, p_eq(f(a, 3), a),
                              p_eq(f(a), a))).is_valid


def test_one_merge_cascades_through_the_pending_queue():
    """Merging x0 and x1 makes f(x0) ~ f(x1), then g(f(x0), x2) ~
    g(f(x1), x2), then f of those, with no call to close()."""
    cc = CongruenceClosure()
    top0, top1 = _f(_g(_f(_X0), _X2)), _f(_g(_f(_X1), _X2))
    cc.add(top0)
    cc.add(top1)
    assert cc.find(top0) is not cc.find(top1)
    cc.merge(_X0, _X1)
    assert cc.find(top0) is cc.find(top1)
    assert cc.find(top0.args[0]) is cc.find(top1.args[0])


def test_constants_stay_representatives():
    cc = CongruenceClosure()
    zero = Skel("const", 0, (), "int")
    cc.merge(_f(_X0), _X1)
    cc.merge(_X1, zero)
    cc.merge(_X0, _X2)
    assert cc.find(_f(_X0)) is zero
    cc.merge(_X1, Skel("const", 1, (), "int"))
    assert cc.conflict and not cc.close()


def test_classes_map_is_reused_until_the_partition_changes():
    cc = CongruenceClosure()
    cc.add(_g(_X0, _X1))
    first = cc.classes()
    assert cc.classes() is first
    cc.merge(_X0, _X1)
    second = cc.classes()
    assert second is not first
    assert [list(m) for m in second.values()] == \
        [[t for t in cc.terms if cc.find(t) is rep] for rep in second]
    cc.add(_X2)
    assert cc.classes() is not second


def test_skeletons_are_interned():
    assert Skel("var", "x", (), "int") is Skel("var", "x")
    app = Skel("app", "f", (Skel("var", "x"),), "int")
    assert app is Skel("app", "f", (Skel("var", "x", (), "int"),), "int")
    assert hash(app) == hash(("app", "f", (Skel("var", "x"),), "int"))
    one, true = Skel("const", 1, (), "int"), Skel("const", True, (), "bool")
    assert one is not true and one != true
    assert (str(one), str(true)) == ("1", "true")


def test_interning_table_drops_dead_skeletons():
    key = ("var", "only-in-this-test", (), "int")
    sk = Skel(*key)
    assert Skel._table.get(key) is sk
    del sk
    gc.collect()
    assert key not in Skel._table


_CHECK_SCRIPT = """
import json, sys
from pathlib import Path
from rsccore import checker, frontend, solver
for path in sys.argv[1:]:
    r = checker.check_program(frontend.parse_program(
        Path(path).read_text(), path), solver.SolverConfig())
print(json.dumps({
    "verdict": r.verdict,
    "diagnostics": [d.render() for d in r.diagnostics],
    "solution": {"schema": "rsc/solution/v1",
                 "kvars": r.assignment.to_json(r.registry)},
}, sort_keys=True))
"""


def test_check_does_not_depend_on_interning_history():
    """minindex.rsc gives the same verdict, diagnostics and solution in a
    fresh process as after the rest of the corpus in one process."""
    target = CORPUS / "minindex.rsc"
    rest = sorted(p for p in CORPUS.glob("*.rsc") if p != target)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def run(paths):
        r = subprocess.run([sys.executable, "-c", _CHECK_SCRIPT,
                            *map(str, paths)],
                           capture_output=True, text=True, env=env,
                           timeout=600)
        assert r.returncode == 0, r.stderr
        return r.stdout

    fresh = run([target])
    assert '"verdict": "verified"' in fresh
    assert run([*rest, target]) == fresh


def test_invalid_verdict_renders_its_valuation():
    """An Invalid answer keeps the value of each term its literals read,
    subterms included, and its model is their rendering.  The value the
    congruence check gives the argument `a` of len(a) is kept but not
    shown."""
    a = TVar("a")
    v = check_valid(_q({"a": S_ARR}, p_eq(TUF("len", (a,)), TConst(3)),
                       PAtom(TBuiltin("lt", (TUF("len", (a,)), TConst(0))))))
    assert v.status == "invalid"
    assert {str(k): value for k, value in v.valuation.items()} == \
        {"len(a)": 3, "a": "@10000019"}
    assert {str(k) for k in v.hidden} == {"a"}
    assert v.model == "len(a) = 3"
    assert Verdict.countermodel(v.valuation, v.hidden) == v



def test_a_hidden_argument_value_refutes_a_later_goal(monkeypatch):
    """Under f(x) = 3, the goal f(x) < 0 is Invalid with the model
    f(x) = 3; the value the congruence check gives x is not shown but is
    kept, and it refutes x < 5 without a run."""
    from rsccore import solver

    check_internal = solver._check_internal
    runs = []

    def run(h, goal):
        runs.append(goal)
        return check_internal(h, goal)

    monkeypatch.setattr(solver, "_check_internal", run)
    x = TVar("x")
    fx = TUF("f", (x,))
    goals = [PAtom(TBuiltin("lt", (fx, TConst(0)))),
             PAtom(TBuiltin("lt", (x, TConst(5))))]
    verdicts = filter_valid(Query.per_goal(
        {"x": S_INT, "%uf:f": S_INT}, p_eq(fx, TConst(3)), goals))
    assert [v and v.status for v in verdicts] == ["invalid", None]
    assert verdicts[0].model == "f(x) = 3"
    assert {str(k): v for k, v in verdicts[0].valuation.items()} == \
        {"f(x)": 3, "x": 10_000_019}
    assert runs == goals[:1]

def test_non_congruent_model_is_unknown():
    """x <= y && y <= x && ttag(x) = "number" implies ttag(y) = "number".
    The Fourier-Motzkin point makes x = y, which congruence closure never
    learns, so the two ttag applications get different values: that is
    no model, and the answer is Unknown, never Invalid."""
    x, y = TVar("x"), TVar("y")
    hyp = p_and(PAtom(TBuiltin("le", (x, y))), PAtom(TBuiltin("le", (y, x))),
                p_eq(TUF("ttag", (x,)), TConst("number")))
    v = check_valid(_q({"x": S_INT, "y": S_INT}, hyp,
                       p_eq(TUF("ttag", (y,)), TConst("number"))))
    assert v.status == "unknown"
    assert v.reason == ("candidate model not congruent: "
                        "ttag(x) = number, ttag(y) = @10000019")


def test_congruence_check_keeps_argument_sorts_apart():
    """f(b) and f(n) with b = true and n = 1 may differ: their arguments
    are of different sorts, although True == 1 in Python."""
    b, n = TVar("b"), TVar("n")
    f_b, f_n = TUF("f", (b,)), TUF("f", (n,))
    hyp = p_and(p_eq(b, TConst(True)), p_eq(n, TConst(1)),
                p_eq(f_b, TConst(1)), p_eq(f_n, TConst(2)))
    v = check_valid(_q({"b": S_BOOL, "n": S_INT, "%uf:f": S_INT}, hyp,
                       P_FALSE))
    assert v.status == "invalid", v


# ---------------------------------------------------------------------------
# prepared hypothesis branches: a closed prefix extended per goal branch


def _scratch_theory_check(lits: list) -> tuple:
    """Reference oracle: the theory check of a whole literal list built
    from scratch, as it was before hypothesis branches were prepared."""
    from itertools import product
    from rsccore.solver.normal import LinCmp
    ne_lits = [l for l in lits if isinstance(l, LinCmp) and l.op == "ne"]
    base = [l for l in lits if not (isinstance(l, LinCmp) and l.op == "ne")]
    if not ne_lits:
        return _scratch_theory_check_conj(base)
    reasons = []
    for signs in product((1, -1), repeat=len(ne_lits)):
        case = list(base)
        for lit, sg in zip(ne_lits, signs):
            coeffs = tuple((k, sg * c) for k, c in lit.coeffs)
            case.append(LinCmp("lt", coeffs, sg * lit.const))
        r = _scratch_theory_check_conj(case)
        if r[0] == "sat":
            return r
        if r[0] == "unknown":
            reasons.append(r[1])
    return ("unknown", reasons[0]) if reasons else ("unsat",)


def _scratch_theory_check_conj(lits: list) -> tuple:
    from rsccore import solver
    from rsccore.solver import fm
    cc = CongruenceClosure()
    arith = []
    for lit in lits:
        if isinstance(lit, EufLit):
            cc.assert_lit(lit)
        else:
            for k, _ in lit.coeffs:
                cc.add(k)
            arith.append(lit)
    if not cc.close():
        return ("unsat",)
    for lit in arith:
        if lit.op == "eq" and len(lit.coeffs) == 1 and \
                lit.coeffs[0][1] == 1:
            key = lit.coeffs[0][0]
            cc.add(key)
            cc.merge(key, Skel("const", -lit.const, (), "int"))
    if not cc.close():
        return ("unsat",)
    changed = True
    while changed:
        changed = False
        for t in list(cc.terms):
            if t.kind != "app" or not solver._interpreted(t):
                continue
            vals = []
            for a in t.args:
                v = solver._class_const(cc, a)
                if v is None:
                    break
                vals.append(v)
            else:
                sem = solver._eval_interp(t, vals)
                if sem is None:
                    continue
                cs = Skel("const", sem, (), "int")
                if t in cc.terms and cs in cc.terms and \
                        cc.find(t) == cc.find(cs):
                    continue
                cc.merge(t, cs)
                changed = True
        if cc.conflict or not cc.close():
            return ("unsat",)
    rows = [(dict(lit.coeffs), -lit.const, lit.op) for lit in arith]
    for a, b in cc.int_equalities():
        coeffs = solver._skel_linear(a, 1)
        for k, c in solver._skel_linear(b, -1).items():
            coeffs[k] = coeffs.get(k, 0) + c
        const = coeffs.pop("%const", 0)
        coeffs = {k: c for k, c in coeffs.items() if c != 0}
        rows.append((coeffs, -const, "eq"))
    r = fm.solve(rows)
    if r[0] == "unsat":
        return ("unsat",)
    return solver._verify_model(lits, cc, r[1])


def test_prepared_branches_match_a_from_scratch_check(monkeypatch):
    """Every (hypothesis branch, goal branch) pair that checking the
    corpus and a loop program visits gets the same status, reason and
    valuation from the hypothesis branch's prepared context, extended by
    the goal branch, as from a check built from scratch.  A branch keeps
    the order of its `!=` literals and of the others, so its other
    literals, then its `!=` ones, then the goal branch's give the
    scratch check the same cases."""
    from conftest import LOOP_K2, parse, parse_text
    from rsccore import solver
    from rsccore.checker import check_program

    theory_check = solver._theory_check
    visited = []

    def recorded(hb, gb):
        r = theory_check(hb, gb)
        visited.append((hb, gb, r))
        return r

    monkeypatch.setattr(solver, "_theory_check", recorded)
    for path in sorted(CORPUS.glob("*.rsc")):
        check_program(parse(path), SolverConfig())
    assert check_program(parse_text(LOOP_K2), SolverConfig()).verdict == \
        "verified"
    assert {r[0] for _, _, r in visited} == {"sat", "unsat", "unknown"}
    assert len({id(hb) for hb, _, _ in visited}) < len(visited)
    for hb, gb, r in visited:
        assert r == _scratch_theory_check(hb.lits + hb.ne + gb), (hb.lits,
                                                                   gb)


def _cc_state(cc) -> tuple:
    # find() compresses paths, so the parent map is read after the
    # partition
    closed, partition = cc.close(), _partition(cc)
    return (closed, partition, dict(cc.parent),
            {r: list(a) for r, a in cc.uses.items()}, dict(cc.sigs),
            set(cc.terms), list(cc.diseqs), cc.conflict)


@given(st.integers(3, 4).flatmap(_euf_steps), st.integers(0, 8))
@example([EufLit(False, _X0, _X0), EufLit(True, _X0, _f(_X1)),
          EufLit(True, _X0, _X1)], 3)
@settings(max_examples=300, deadline=None)
def test_extending_a_copied_closure_matches_a_fresh_one(steps, cut):
    """A closure built from a prefix of the steps and copied, with the
    copy extended by the rest, agrees with a closure built from all the
    steps on conflict, close() and, absent a conflict, the partition;
    the prefix's closure is left as it was."""
    def apply(closure, part):
        for step in part:
            if isinstance(step, EufLit):
                closure.assert_lit(step)
            else:
                closure.add(step)

    prefix, fresh = CongruenceClosure(), CongruenceClosure()
    apply(prefix, steps[:cut])
    apply(fresh, steps)
    before = _cc_state(prefix)
    extended = prefix.copy()
    apply(extended, steps[cut:])
    assert extended.close() == fresh.close()
    assert extended.conflict == fresh.conflict
    assert extended.terms == fresh.terms
    if not fresh.conflict:
        assert _partition(extended) == _partition(fresh)
        assert set(map(frozenset, extended.classes().values())) == \
            _partition(fresh)
    assert _cc_state(prefix) == before


@given(st.integers(2, 4).flatmap(_fm_system), st.integers(0, 30))
@example(_HEAVY_FM, 3)
@settings(max_examples=300, deadline=None)
def test_fourier_motzkin_over_a_prepared_table(system, cut):
    """Solving the rows after a cut over the table of the rows before it
    gives the outcome and the point of one call over all the rows, and
    leaves the table as it was, so a second call gives them again."""
    from rsccore.solver import fm
    rows = _fm_rows(system)
    cut %= len(rows) + 1
    prepared = fm.table(rows[:cut])

    def state():
        return [(key, dict(r.coeffs), r.bound, r.mult)
                for key, r in prepared.items()]

    before = state()
    want = fm.solve(rows)
    assert fm.solve(rows[cut:], prepared) == want
    assert state() == before
    assert fm.solve(rows[cut:], prepared) == want
