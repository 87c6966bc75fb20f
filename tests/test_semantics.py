"""Interpreter and differential-harness tests: hand-derived evaluation
oracles, stuck states, fuel, lockstep simulation, and fault injection."""

import random
import sys

import pytest

from conftest import CORPUS, parse, parse_text

from rsccore.semantics import VClosure, run, simulate
from rsccore.semantics.values import MISSING, mk_val, val_of, values_equal
from rsccore.ssa import ssa_program
from rsccore.syntax import (
    BIte, EArgsLen, ECast, EClosure, EConst, ECtxApply, EFieldAssign,
    EFieldRead, EFuncCall, EMethodCall, ENew, EThis, EVar, EWhileRun, KHole,
    KLetIf, KLetIn, KLetWhile, PhiIf, SExprStmt, SFieldAssign, SIte,
    SVarDecl, SWhile,
)


def _ssa(path):
    return ssa_program(parse(path))


def _ssa_text(text):
    return ssa_program(parse_text(text))


# hand-evaluated oracle for the reduce/minIndex semantics
@pytest.mark.parametrize("arr,expected", [
    ([3, 1, 2], 1),
    ([5], 0),
    ([], -1),
    ([9, 4, 6, 2, 8], 3),
    ([2, 2, 1, 1], 2),
])
def test_minindex_evaluates(arr, expected):
    sp, _ = _ssa(CORPUS / "minindex.rsc")
    for machine in ("frsc", "irsc"):
        r = run(sp, entry="minIndex", args=[arr], machine=machine)
        assert r.status == "terminal" and r.value == expected, machine


def test_head_on_empty_array_sticks():
    sp, _ = _ssa(CORPUS / "head.rsc")
    r = run(sp, entry="head", args=[[]])
    assert r.status == "stuck"
    assert "out of bounds" in r.reason


def test_infinite_loop_out_of_fuel():
    sp, _ = _ssa_text("""
/*@ (n: number) => number */
function spin(n) {
  while (true) { n = n + 1; }
  return n;
}
""")
    r = run(sp, entry="spin", args=[0], fuel=1000)
    assert r.status == "out-of-fuel"


def test_field_methods_run():
    sp, _ = _ssa(CORPUS / "field_ghost.rsc")
    r = run(sp)
    assert r.status == "terminal"


def test_overload_runtime_dispatch():
    sp, _ = _ssa(CORPUS / "overload_reduce.rsc")
    # three-argument form
    r3 = run(sp, entry="$reduce", args=[[1, 2, 3], "sum?", 0])
    # $reduce calls f; pass a function: craft via source instead
    sp2, _ = _ssa_text("""
/*@ <A,B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B */
function reduce(a, f, x) {
  var res = x, i;
  for (var i = 0; i < a.length; i++)
    res = f(res, a[i], i);
  return res;
}

/*@ <A,B>(a: A[]+, f: (A, A, idx<a>) => A) => A
    <A,B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B */
function $reduce(a, f, x) {
  if (arguments.length === 3) return reduce(a, f, x);
  return reduce(a.slice(1), f, a[0]);
}

/*@ (acc: number, cur: number, i: number) => number */
function add3(acc, cur, i) { return acc + cur; }

/*@ (a: {v:number[] | 0 < len(v)}) => number */
function sumTail(a) { return $reduce(a, add3); }

/*@ (a: number[]) => number */
function sumAll(a) { return $reduce(a, add3, 0); }
""")
    r = run(sp2, entry="sumAll", args=[[1, 2, 3]])
    assert r.status == "terminal" and r.value == 6
    r2 = run(sp2, entry="sumTail", args=[[10, 1, 2]])
    # two-arg overload folds from a[0]
    assert r2.status == "terminal" and r2.value == 13


# each case with its exact (frsc_steps, irsc_steps, value), so that a
# change in how the two machines align shows as a changed step count
SIM_CASES = [
    (("minindex.rsc", "minIndex", [[3, 1, 2]]), (55, 131, "1")),
    (("minindex.rsc", "minIndex", [[]]), (5, 6, "-1")),
    (("minindex.rsc", "minIndex", [[7, 7, 7, 1]]), (69, 166, "3")),
    (("head.rsc", "head0", [[4, 5]]), (7, 11, "4")),
    (("head.rsc", "head0", [[]]), (5, 6, "0")),
    (("ssa_reduce.rsc", None, None), None),  # no top: skipped below
    (("typeof.rsc", "addIfNum", [11]), (7, 15, "12")),
    (("typeof.rsc", "addIfNum", ["hello"]), (5, 10, "1")),
    (("field_ghost.rsc", None, None), (31, 67, "undefined")),
    (("cast_flags.rsc", None, None), (18, 38, "undefined")),
]


@pytest.mark.parametrize("name,entry,args", [case for case, _ in SIM_CASES])
def test_simulate_corpus(name, entry, args):
    p = parse(CORPUS / name)
    sp, theta = ssa_program(p)
    if entry is None and p.top is None:
        pytest.skip("no top-level body")
    rep = simulate(sp, theta, entry=entry, args=args)
    assert rep.status == "ok", rep.detail
    assert rep.frsc_steps <= rep.irsc_steps
    expected = next(r for case, r in SIM_CASES if case == (name, entry, args))
    assert (rep.frsc_steps, rep.irsc_steps, rep.value) == expected


_JOIN = """
/*@ (c: bool) => number */
function f(c) {
  var x = 0;
  if (c) { x = 1; } else { x = 2; }
  return x;
}
"""


def test_simulate_detects_injected_fault(monkeypatch):
    """A deliberately broken join (swapped branch names) must produce a
    divergence at the first conditional."""
    import rsccore.ssa as ssa_mod

    real = ssa_mod.env_diff

    def broken(d1, d2):
        return [(x, b, a) for (x, a, b) in real(d1, d2)]

    monkeypatch.setattr(ssa_mod, "env_diff", broken)
    sp, theta = ssa_program(parse_text(_JOIN))
    rep = simulate(sp, theta, entry="f", args=[True])
    assert rep.status in ("divergence", "stuck")


_LOOP = """
/*@ () => number */
function f() {
  var i = 0;
  var s = 10;
  while (i < 3) { s = s + i; i = i + 1; }
  return s;
}
"""


def _drop_last_phi(monkeypatch, ssa_mod):
    real = ssa_mod.env_diff
    monkeypatch.setattr(ssa_mod, "env_diff",
                        lambda d1, d2: real(d1, d2)[:-1])


def _broken_stmt(monkeypatch, ssa_mod, breaks):
    real = ssa_mod.SsaTranslator.ssa_stmt

    def broken(self, env, s):
        k, out = real(self, env, s)
        breaks(s, k)
        return k, out

    monkeypatch.setattr(ssa_mod.SsaTranslator, "ssa_stmt", broken)


def _swap_letif_branches(monkeypatch, ssa_mod):
    def swap(s, k):
        if isinstance(s, SIte):
            k.then_ctx, k.else_ctx = k.else_ctx, k.then_ctx
    _broken_stmt(monkeypatch, ssa_mod, swap)


def _swap_loop_inits(monkeypatch, ssa_mod):
    def swap(s, k):
        if isinstance(s, SWhile):
            k.init_exprs = k.init_exprs[::-1]
    _broken_stmt(monkeypatch, ssa_mod, swap)


def _stale_back_edge(monkeypatch, ssa_mod):
    """Each loop phi takes its entry name again on the back edge; the
    simulation must not rewrite the recorded back edge while it walks
    the loop at run time."""
    def stale(s, k):
        if isinstance(s, SWhile):
            for p in k.phis:
                p.next = p.init
    _broken_stmt(monkeypatch, ssa_mod, stale)


# faults that only a comparison of the whole configuration catches: the two
# names read stand for the same value once bound, so the fault shows only
# while a name is still pending, in a statement past the current one

_TAIL = """
/*@ () => number */
function f() {
  var i = 0;
  while (i < 3) { i = i + 1; }
  var v = i;
  var w = i;
  var t = v + 1;
  return t;
}
"""

_CALLER = """
/*@ (a: number) => number */
function g(a) { return a + 1; }
/*@ (a: number) => number */
function f(a) { var b = a + 1; var x = g(a); var y = x + b; return y; }
"""


def _tail_reads_the_twin(monkeypatch, ssa_mod):
    """`var t = v + 1`, the last statement after the loop, reads w."""
    names = {}

    def misread(s, k):
        if isinstance(s, SVarDecl):
            names[s.name] = k.name
            if s.name == "t":
                k.expr.args[0] = EVar(names["w"], nid=0)
    _broken_stmt(monkeypatch, ssa_mod, misread)


def _caller_reads_the_twin(monkeypatch, ssa_mod):
    """`var y = x + b`, after `var x = g(a)`, reads b for x: it differs
    only while g runs and the caller's frame is suspended."""
    def misread(s, k):
        if isinstance(s, SVarDecl) and s.name == "y":
            k.expr.args[0] = EVar(k.expr.args[1].name, nid=0)
    _broken_stmt(monkeypatch, ssa_mod, misread)


# one fault per form the random programs do not reach: a result join, a
# field write, an array write, a call and a closure

_RESULT_JOIN = """
/*@ (c: bool, a: number, b: number) => number */
function f(c, a, b) {
  var x = a + 1;
  if (c) { return x + b; } else { return x - b; }
}
"""

# a result join nested in a branch of another, with a `var` in the inner
# branch
_NESTED_JOIN = ("function f(a) { if (a > 0) { if (a > 5) { var x = a + 1;"
                " return x; } return 2; } var z = 3; return z; }")


_FIELD_WRITE = """
class P {
  n : number;
  constructor(n: number) { this.n = n; }
}
/*@ (a: number) => number */
function f(a) { var p = new P(a); p.n = a + 1; var r = p.n; return r; }
"""

_ARRAY_WRITE = """
/*@ (a: number[]) => number */
function f(a) { a[0] = 7; return a[0]; }
"""

_CALL = """
/*@ (x: number, y: number) => number */
function g(x, y) { return x - y; }
/*@ (a: number) => number */
function f(a) { var b = a + 2; var r = g(a, b); return r; }
"""

_CLOSURE = """
/*@ (a: number) => number */
function f(a) {
  var x = a + 1;
  var y = a + 2;
  function h(z) { return x * z; }
  var r = h(a);
  return r;
}
"""


def _broken_body(monkeypatch, ssa_mod, breaks):
    real = ssa_mod.SsaTranslator.ssa_body

    def broken(self, env, b):
        e = real(self, env, b)
        breaks(b, e)
        return e

    monkeypatch.setattr(ssa_mod.SsaTranslator, "ssa_body", broken)


def _swap_result_bodies(monkeypatch, ssa_mod):
    """The result join binds each branch's name to the other's body."""
    def swap(b, e):
        if isinstance(b, BIte):
            k1, k2 = e.ctx.then_ctx, e.ctx.else_ctx
            k1.expr, k2.expr = k2.expr, k1.expr
    _broken_body(monkeypatch, ssa_mod, swap)


def _drop_field_write(monkeypatch, ssa_mod):
    """`p.n = a + 1` binds its right-hand side and writes nothing."""
    def drop(s, k):
        if isinstance(s, SFieldAssign):
            k.expr = k.expr.rhs
    _broken_stmt(monkeypatch, ssa_mod, drop)


def _drop_array_write(monkeypatch, ssa_mod):
    """`a[0] = 7`, a `set` call, binds its value and writes nothing."""
    def drop(s, k):
        if isinstance(s, SExprStmt):
            k.expr = k.expr.args[2]
    _broken_stmt(monkeypatch, ssa_mod, drop)


def _reverse_call_args(monkeypatch, ssa_mod):
    """`var r = g(a, b)` passes b for x and a for y."""
    def reverse(s, k):
        if isinstance(s, SVarDecl) and s.name == "r":
            k.expr.args.reverse()
    _broken_stmt(monkeypatch, ssa_mod, reverse)


def _capture_the_twin(monkeypatch, ssa_mod):
    """The closure of h, built at `var r = h(a)`, captures y for x."""
    names = {}

    def misread(s, k):
        if isinstance(s, SVarDecl):
            names[s.name] = k.name
            if s.name == "r":
                k.expr.callee.captures = [EVar(names["y"], nid=0)]
    _broken_stmt(monkeypatch, ssa_mod, misread)


@pytest.mark.parametrize("inject,text,args", [
    (_drop_last_phi, _JOIN, [True]),
    (_swap_letif_branches, _JOIN, [True]),
    (_swap_loop_inits, _LOOP, []),
    (_stale_back_edge, _LOOP, []),
    (_tail_reads_the_twin, _TAIL, []),
    (_caller_reads_the_twin, _CALLER, [5]),
    (_swap_result_bodies, _RESULT_JOIN, [True, 3, 4]),
    (_swap_result_bodies, _NESTED_JOIN, [7]),
    (_drop_field_write, _FIELD_WRITE, [3]),
    (_drop_array_write, _ARRAY_WRITE, [[1, 2]]),
    (_reverse_call_args, _CALL, [5]),
    (_capture_the_twin, _CLOSURE, [2]),
], ids=["dropped-phi", "swapped-letif-branches", "wrong-loop-init",
        "stale-back-edge", "tail-after-loop", "suspended-caller",
        "swapped-result-join", "swapped-nested-result-join",
        "dropped-field-write", "dropped-array-write", "reversed-call-args",
        "wrong-capture"])
def test_simulate_detects_injected_ssa_faults(monkeypatch, inject, text,
                                              args):
    """Each SSA fault, injected into the translation, is reported as a
    divergence; the same program simulates cleanly without it."""
    import rsccore.ssa as ssa_mod

    sp, theta = ssa_program(parse_text(text))
    assert simulate(sp, theta, entry="f", args=args).status == "ok"
    inject(monkeypatch, ssa_mod)
    sp, theta = ssa_program(parse_text(text))
    rep = simulate(sp, theta, entry="f", args=args)
    assert rep.status == "divergence", rep


def test_context_applications_are_canonical(monkeypatch):
    """The translation and both machines build every context application
    in one shape, so the simulation compares raw terms: after every FRSC
    step, in every spine element the comparison reads from the
    translator, and in every whole translated source configuration, no
    application has an empty context or an application as its body."""
    from rsccore.semantics.frsc import FrscMachine
    from rsccore.syntax import ECtxApply, KHole, walk_tree
    sim = sys.modules["rsccore.semantics.simulate"]
    terms = []
    step, spine = FrscMachine.step, sim.ConfigTranslator.spine
    corresponds = sim.corresponds

    def recording_step(self, c):
        r = step(self, c)
        if r[0] == "ok":
            terms.append(r[1].focus)
        return r

    def recording_spine(self, c):
        for element in spine(self, c):
            terms.append(element)
            yield element

    def recording_corresponds(tr, ic, fc):
        try:
            terms.append(tr.config(ic))
        except sim.TranslateGap:
            pass
        return corresponds(tr, ic, fc)

    monkeypatch.setattr(FrscMachine, "step", recording_step)
    monkeypatch.setattr(sim.ConfigTranslator, "spine", recording_spine)
    monkeypatch.setattr(sim, "corresponds", recording_corresponds)
    for sp, theta, entry, args in [
            (*_ssa(CORPUS / "minindex.rsc"), "minIndex", [[3, 1, 2]]),
            (*_ssa_text(_JOIN), "f", [False]),
            (*_ssa_text(_LOOP), "f", []),
            (*_ssa_text(_CALLER), "f", [5])]:
        assert simulate(sp, theta, entry=entry, args=args).status == "ok"
    assert len(terms) > 100
    for term in terms:
        for node in walk_tree(term):
            if isinstance(node, ECtxApply):
                assert not isinstance(node.ctx, KHole), node
                assert not isinstance(node.expr, ECtxApply), node


# The oracle's comparison: structural equality written out class by class,
# independent of `syntax.subtree_fields`, seeing through the same values
# and the same recorded result joins as the simulation's.


def _oracle_normalize(e, joins):
    while isinstance(e, ECtxApply) and isinstance(e.ctx, KLetIn) and \
            isinstance(e.ctx.rest, KHole) and isinstance(e.expr, EVar) and \
            e.expr.name == e.ctx.name and e.ctx.name in joins:
        e = e.ctx.expr
    v = val_of(e)
    return e if v is MISSING or isinstance(e, EConst) else mk_val(v)


def _oracle_terms_equal(a, b, joins) -> bool:
    a = _oracle_normalize(a, joins)
    b = _oracle_normalize(b, joins)
    if type(a) is not type(b):
        return False
    if isinstance(a, EConst):
        return values_equal(a.value, b.value)
    if isinstance(a, EVar):
        return a.name == b.name
    if isinstance(a, (EThis, EArgsLen)):
        return True
    if isinstance(a, EFieldRead):
        return a.fname == b.fname and _oracle_terms_equal(a.obj, b.obj, joins)
    if isinstance(a, EMethodCall):
        return a.mname == b.mname and \
            _oracle_terms_equal(a.obj, b.obj, joins) and \
            _oracle_each(a.args, b.args, joins)
    if isinstance(a, EFuncCall):
        return _oracle_terms_equal(a.callee, b.callee, joins) and \
            _oracle_each(a.args, b.args, joins)
    if isinstance(a, ENew):
        return a.cname == b.cname and _oracle_each(a.args, b.args, joins)
    if isinstance(a, ECast):
        return _oracle_terms_equal(a.expr, b.expr, joins)
    if isinstance(a, EClosure):
        return a.fname == b.fname and \
            _oracle_each(a.captures, b.captures, joins)
    if isinstance(a, EFieldAssign):
        return a.fname == b.fname and \
            _oracle_terms_equal(a.obj, b.obj, joins) and \
            _oracle_terms_equal(a.rhs, b.rhs, joins)
    if isinstance(a, ECtxApply):
        return _oracle_ctxs_equal(a.ctx, b.ctx, joins) and \
            _oracle_terms_equal(a.expr, b.expr, joins)
    if isinstance(a, EWhileRun):
        return (_oracle_terms_equal(a.cond_focus, b.cond_focus, joins) and
                len(a.cur_vals) == len(b.cur_vals) and
                all(map(values_equal, a.cur_vals, b.cur_vals)) and
                _oracle_phis_equal(a.phis, b.phis) and
                _oracle_terms_equal(a.cond_orig, b.cond_orig, joins) and
                _oracle_ctxs_equal(a.body_ctx, b.body_ctx, joins) and
                _oracle_terms_equal(a.cont, b.cont, joins))
    return False


def _oracle_each(xs, ys, joins) -> bool:
    return len(xs) == len(ys) and \
        all(_oracle_terms_equal(x, y, joins) for x, y in zip(xs, ys))


def _oracle_ctxs_equal(a, b, joins) -> bool:
    while type(a) is type(b):
        if isinstance(a, KHole):
            return True
        if isinstance(a, KLetIn):
            ok = a.name == b.name and \
                _oracle_terms_equal(a.expr, b.expr, joins)
        elif isinstance(a, KLetIf):
            ok = (_oracle_phis_equal(a.phis, b.phis) and
                  _oracle_terms_equal(a.cond, b.cond, joins) and
                  _oracle_ctxs_equal(a.then_ctx, b.then_ctx, joins) and
                  _oracle_ctxs_equal(a.else_ctx, b.else_ctx, joins) and
                  _oracle_each(a.left_exprs, b.left_exprs, joins) and
                  _oracle_each(a.right_exprs, b.right_exprs, joins))
        elif isinstance(a, KLetWhile):
            ok = (_oracle_phis_equal(a.phis, b.phis) and
                  _oracle_terms_equal(a.cond, b.cond, joins) and
                  _oracle_ctxs_equal(a.body_ctx, b.body_ctx, joins) and
                  _oracle_each(a.init_exprs, b.init_exprs, joins))
        else:
            return False
        if not ok:
            return False
        a, b = a.rest, b.rest
    return False


def _oracle_phis_equal(a, b) -> bool:
    """Phis agree on the names they bind, and loop phis on their back
    edges too."""
    return len(a) == len(b) and all(
        type(p) is type(q) and p.phi == q.phi and
        (isinstance(p, PhiIf) or p.next == q.next) for p, q in zip(a, b))


def _eager_corresponds(tr, ic, fc) -> bool:
    """The oracle: translate the whole source configuration, then compare
    the whole terms, class by class, and the heaps."""
    sim = sys.modules["rsccore.semantics.simulate"]
    try:
        image = tr.config(ic)
    except sim.TranslateGap:
        return False
    return _oracle_terms_equal(image, fc.focus, tr.joins) and \
        sim.heaps_equal(ic.heap, fc.heap)


def _simulation_inputs(programs: int):
    """The corpus simulation fixtures of the acceptance suite, then the
    first programs of its random stream: ssa program, env, entry, args."""
    from test_acceptance import SIM_FIXTURES
    for name, entry, args in SIM_FIXTURES:
        p = parse(CORPUS / name)
        if entry != "reduce" and (entry is not None or p.top is not None):
            yield (*ssa_program(p), entry, args)
    rng = random.Random(20_260_808)
    for i in range(programs):
        yield (*_ssa_text(gen_program(rng)), None, None)


def test_head_first_comparison_agrees_with_the_eager_one(monkeypatch):
    """Every alignment attempt on the benchmark's simulation inputs and on
    the first 50 programs of the acceptance suite's random stream gets the
    same answer from the head-first walk as from the eager comparison."""
    sim = sys.modules["rsccore.semantics.simulate"]
    corresponds = sim.corresponds
    answers = {True: 0, False: 0}

    def both(tr, ic, fc):
        head_first = corresponds(tr, ic, fc)
        assert head_first == _eager_corresponds(tr, ic, fc)
        answers[head_first] += 1
        return head_first

    monkeypatch.setattr(sim, "corresponds", both)
    for sp, theta, entry, args in _simulation_inputs(50):
        rep = simulate(sp, theta, entry=entry, args=args)
        assert rep.status == "ok", rep.detail
    assert min(answers.values()) > 1000, answers


def test_failed_attempts_translate_little(monkeypatch):
    """Deterministic translation counts over the benchmark's 12 random
    programs, split by attempt outcome.  Translating each configuration
    whole, the 3,516 failed attempts made 499,541 `expr` calls and the
    1,840 aligned ones 260,327; head first, a failed attempt stops at the
    first element that differs.  Looking one element ahead after every
    `let` at a term start, the failed attempts made 78,372 calls; only a
    `let` of a recorded result join looks ahead now."""
    sim = sys.modules["rsccore.semantics.simulate"]
    corresponds, expr = sim.corresponds, sim.ConfigTranslator.expr
    calls = [0]
    by_outcome = {True: [0, 0], False: [0, 0]}  # attempts, expr calls

    def counting_expr(self, *args):
        calls[0] += 1
        return expr(self, *args)

    def counting(tr, ic, fc):
        before = calls[0]
        ok = corresponds(tr, ic, fc)
        by_outcome[ok][0] += 1
        by_outcome[ok][1] += calls[0] - before
        return ok

    monkeypatch.setattr(sim.ConfigTranslator, "expr", counting_expr)
    monkeypatch.setattr(sim, "corresponds", counting)
    rng = random.Random(20_260_808)
    for _ in range(12):
        rep = simulate(*_ssa_text(gen_program(rng)))
        assert rep.status == "ok", rep.detail
    assert by_outcome == {False: [3516, 52_817], True: [1840, 260_327]}
    assert by_outcome[False][1] <= 0.2 * 499_541


_G = """
/*@ (a: number) => number */
function g(a) { var y = a + 1; var x = y + 2; return x; }
"""

_P = """
class P {
  f : number;
  constructor(f: number) { this.f = f; }
}
"""

_F = "/*@ (a: number) => number */\nfunction f(a) "

# bodies that end `return x` after two or more statements, with their
# exact (frsc_steps, irsc_steps, value); the one-`var` body is the control
RETURN_AFTER_STATEMENTS = [
    (_F + "{ var y = a + 1; var x = y + 2; return x; }", [3], (5, 11, "6")),
    (_F + "{ var x = a; x = x * 2; return x; }", [2], (4, 11, "4")),
    (_G + _F + "{ return g(a); }", [6], (6, 14, "9")),
    (_F + "{ if (a > 0) { var y = a + 1; var x = y + 2; return x; }"
     " return 0; }", [2], (8, 14, "5")),
    (_P + _F + "{ var p = new P(a); var x = p.f; return x; }", [3],
     (7, 18, "3")),
    (_F + "{ var i = 0; while (i < a) { i = i + 1; } var x = i;"
     " return x; }", [3], (21, 44, "3")),
    (_G + _F + "{ var i = 0; while (g(i) < a) { i = i + 1; } return i; }",
     [6], (40, 85, "3")),
    (_F + "{ var x = a + 1; return x; }", [3], (3, 7, "4")),
    (_F + "{ " + " ".join(f"var x{i} = a + {i};" for i in range(300)) +
     " return x299; }", [1], (601, 1203, "300")),
]


@pytest.mark.parametrize("text,args,expected", RETURN_AFTER_STATEMENTS,
                         ids=["two-vars", "var-then-assign", "callee",
                              "if-branch", "field-read", "after-while",
                              "loop-condition-call", "one-var",
                              "300-vars"])
def test_simulate_return_after_statements(text, args, expected):
    """A body ending `var x = e; return x;` after another statement used
    to diverge: the translation nested the lets that FRSC composes."""
    sp, theta = _ssa_text(text)
    rep = simulate(sp, theta, entry="f", args=args)
    assert rep.status == "ok", rep.detail
    assert (rep.frsc_steps, rep.irsc_steps, rep.value) == expected


_SHADOWS_G = "function g(x) { return x + 1; }\nfunction f(a) "


@pytest.mark.parametrize("text,args,expected", [
    (_SHADOWS_G + "{ if (a > 0) { var g = 5; } else { }"
     " var r = g(a); return r; }", [1], (7, 15, "2")),
    (_SHADOWS_G + "{ var i = 0; while (i < a) { var g = 5; i = i + 1; }"
     " var r = g(a); return r; }", [1], (14, 30, "2")),
], ids=["branch", "loop-body"])
def test_callee_after_a_scoped_local_is_the_global(text, args, expected):
    """A variable declared in a branch or a loop body ends at the join, so
    a later call of its name calls the global function in the translation
    and in both machines, though the source store still holds the
    variable: the runtime image calls the global function too."""
    sp, theta = _ssa_text(text)
    rep = simulate(sp, theta, entry="f", args=args)
    assert rep.status == "ok", rep.detail
    assert (rep.frsc_steps, rep.irsc_steps, rep.value) == expected


@pytest.mark.parametrize("text,entry,args,expected", [
    (_SHADOWS_G + "{ var g = 5; return g; }", "f", [1], 5),
    (_SHADOWS_G.replace("f(a)", "f(g)") + "{ return g; }", "f", [4], 4),
    (_SHADOWS_G + "{ var g = 5; function h(z) { return g; }"
     " var r = h(0); return r; }", "f", [1], 5),
    ("function f(a) { function h(z) { return a; } return h; }\n"
     "function e(x) { return f(1) === f(true); }", "e", [0], False),
    ("function f(a) { function h(z) { return a; } return h; }\n"
     "function e(x) { return f(x) === f(x); }", "e", [2], True),
    ("function t(a) { function h(z) { return arguments.length + a; }"
     " var r = h(5); return r; }", "t", [0], 1),
    ("function t(a) { function h(z) { return arguments.length + a; }"
     " var r = h(5); return r; }\n"
     "function k(x) { return h(x, 0); }", "k", [7], 9),
], ids=["var", "parameter", "captured-var", "closures-differ",
        "closures-equal", "closure-argc", "direct-argc"])
def test_names_and_values_mean_one_thing(text, entry, args, expected):
    """A value-position name is its innermost binding, two closures are
    equal when their functions and captures are, and `arguments.length`
    counts the call's own arguments: on both machines alike."""
    sp, _ = _ssa_text(text)
    for machine in ("irsc", "frsc"):
        r = run(sp, entry=entry, args=args, machine=machine)
        assert r.status == "terminal", (machine, r.reason)
        assert r.value == expected and type(r.value) is type(expected), \
            machine


@pytest.mark.parametrize("text,entry", [
    ("function f(a) { function h(z) { return a; } return h; }\n"
     "function e(x) { return f(1) === f(true); }", "e"),
    ("function t(a) { function h(z) { return arguments.length + a; }"
     " var r = h(5); return r; }", "t"),
    (_SHADOWS_G.replace("f(a)", "f(g)") + "{ return g; }", "f"),
    (_SHADOWS_G + "{ var g = 5; function h(z) { return g; }"
     " var r = h(0); return r; }", "f"),
])
def test_closure_programs_simulate(text, entry):
    sp, theta = _ssa_text(text)
    assert simulate(sp, theta, entry=entry, args=[0]).status == "ok"


def test_closure_equality_compares_captures():
    inner = VClosure("h", (1,))
    assert values_equal(VClosure("k", (inner, 2)), VClosure("k", (inner, 2)))
    assert not values_equal(VClosure("k", (VClosure("h", (True,)), 2)),
                            VClosure("k", (inner, 2)))
    assert not values_equal(VClosure("h", (1,)), VClosure("h", (1, 2)))
    assert not values_equal(VClosure("h", (1,)), VClosure("k", (1,)))


@pytest.mark.parametrize("text,args,expected", [
    ("function f(a) { var y = 7; return y; }", [1], (2, 5, "7")),
    (_SHADOWS_G + "{ var g = 5; return g; }", [1], (2, 5, "5")),
    ("function f(a) { var y = arguments.length; return y; }", [3],
     (2, 6, "1")),
    (_NESTED_JOIN, [7], (9, 13, "8")),
    (_NESTED_JOIN, [1], (7, 8, "2")),
    (_NESTED_JOIN, [0], (5, 8, "3")),
], ids=["var", "var-named-like-a-function", "arguments-length",
        "nested-join-inner-let", "nested-join-inner-return",
        "nested-join-outer-let"])
def test_simulate_a_body_returning_its_only_var(text, args, expected):
    """The image `let y = v in y` of a body ending `var y = v; return y;`
    is no result join, so the comparison does not see through it one
    source step early; the `let` of a branch's own `var` under a result
    join is not seen through either."""
    sp, theta = _ssa_text(text)
    rep = simulate(sp, theta, entry="f", args=args)
    assert rep.status == "ok", rep.detail
    assert (rep.frsc_steps, rep.irsc_steps, rep.value) == expected


def test_divergence_in_a_loop_condition_is_reported(monkeypatch):
    """A fault that diverges while FRSC evaluates a loop condition is a
    divergence report naming the running loop, not an exception."""
    import rsccore.ssa as ssa_mod

    def stale_read(s, k):
        # `var x = y + 2` in g reads the parameter instead of y
        if isinstance(s, SVarDecl) and s.name == "x":
            k.expr.args[0] = EVar("a", nid=0)
    _broken_stmt(monkeypatch, ssa_mod, stale_read)
    sp, theta = _ssa_text(RETURN_AFTER_STATEMENTS[6][0])
    rep = simulate(sp, theta, entry="f", args=[1000])
    assert rep.status == "divergence"
    assert rep.detail.startswith(
        "no corresponding source configuration within 200 steps;"
        " target focus: whilerun [i#")


def test_straight_line_simulation_steps():
    sp, theta = _ssa_text("""
var a = 1;
var b = a + 2;
var c = a * b;
""")
    rep = simulate(sp, theta)
    assert rep.status == "ok"
    assert rep.frsc_steps <= rep.irsc_steps


# ---------------------------------------------------------------------------
# seeded random straight-line/branching program generator


def gen_program(rng: random.Random) -> str:
    lines = []
    variables = []
    for i in range(rng.randrange(2, 6)):
        v = f"v{i}"
        lines.append(f"var {v} = {rng.randrange(-5, 10)};")
        variables.append(v)

    def expr(depth=0):
        if depth > 2 or rng.random() < 0.4:
            if variables and rng.random() < 0.6:
                return rng.choice(variables)
            return str(rng.randrange(-4, 9))
        op = rng.choice(["+", "-", "*"])
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    def cond():
        op = rng.choice(["<", "<=", ">", ">=", "===", "!=="])
        return f"({expr()} {op} {expr()})"

    def block(depth):
        n = rng.randrange(1, 4)
        out = []
        for _ in range(n):
            out.extend(stmt(depth))
        return out

    def stmt(depth):
        roll = rng.random()
        if roll < 0.45 or depth >= 2:
            return [f"{rng.choice(variables)} = {expr()};"]
        if roll < 0.8:
            t = " ".join(block(depth + 1))
            e = " ".join(block(depth + 1))
            return [f"if ({cond()}) {{ {t} }} else {{ {e} }}"]
        v = rng.choice(variables)
        bound = rng.randrange(1, 5)
        body = " ".join(block(depth + 1))
        ctr = f"c{rng.randrange(1000)}"
        return [f"var {ctr} = 0;",
                f"while ({ctr} < {bound}) {{ {body} {ctr} = {ctr} + 1; }}"]

    for _ in range(rng.randrange(2, 7)):
        lines.extend(stmt(0))
    return "\n".join(lines)


def test_simulate_random_programs_small():
    rng = random.Random(1234)
    for i in range(40):
        src = gen_program(rng)
        p = parse_text(src, f"<gen{i}>")
        sp, theta = ssa_program(p)
        rep = simulate(sp, theta, fuel=10_000)
        assert rep.status == "ok", f"seed case {i}: {rep.detail}\n{src}"
        assert rep.frsc_steps <= rep.irsc_steps


def _holes(x) -> int:
    from rsccore.semantics.irsc import EHole
    if isinstance(x, EHole):
        return 1
    if isinstance(x, list):
        return sum(_holes(c) for c in x)
    if not hasattr(x, "nid"):
        return 0
    return sum(_holes(v) for v in vars(x).values())


def _check_plugged(old, new, filling) -> int:
    """Walks the tree before and after `plug` side by side and returns the
    number of holes replaced; everything off the path to a hole must come
    back as the same object."""
    from rsccore.semantics.irsc import EHole
    if isinstance(old, EHole):
        assert new is filling
        return 1
    if isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old)
        return sum(_check_plugged(a, b, filling) for a, b in zip(old, new))
    if not _holes(old):
        assert new is old
        return 0
    assert new is not old and type(new) is type(old)
    assert (new.nid, new.span) == (old.nid, old.span)
    assert vars(new).keys() == vars(old).keys()
    return sum(_check_plugged(v, getattr(new, k), filling)
               for k, v in vars(old).items())


def test_plug_rebuilds_only_the_path_to_the_hole(monkeypatch):
    """Every context the IRSC machine plugs during a run, and one built by
    hand with the hole inside an argument list: exactly one hole is
    replaced, the context itself is left as it was, and every hole-free
    subtree and list element comes back as the same object."""
    from rsccore.semantics import irsc
    from rsccore.syntax import (
        BReturn, BSeq, EConst, EFuncCall, EVar, SVarDecl,
    )
    plug = irsc.plug
    seen = []

    def recording(tree, filling):
        out = plug(tree, filling)
        seen.append((tree, _holes(tree), filling, out))
        return out

    monkeypatch.setattr(irsc, "plug", recording)
    sp, _ = _ssa(CORPUS / "minindex.rsc")
    r = run(sp, entry="minIndex", args=[[3, 1, 2]], machine="irsc")
    assert (r.status, r.value) == ("terminal", 1)
    monkeypatch.undo()
    call = EFuncCall(EVar("g", nid=5), [EConst(1, nid=6), irsc.EHole(),
                                        EVar("y", nid=7)], nid=4)
    tree = BSeq(SVarDecl("x", call, nid=3),
                BReturn(EVar("x", nid=9), nid=8), nid=2)
    fill = EConst(0, nid=0)
    seen.append((tree, 1, fill, plug(tree, fill)))
    assert sum(1 for _, holes, _, _ in seen if holes) > 10
    for tree, holes, filling, out in seen:
        assert holes <= 1 and _holes(tree) == holes
        assert _check_plugged(tree, out, filling) == holes
    out = seen[-1][3]
    assert out.rest is tree.rest and out.stmt.expr.callee is call.callee
    assert out.stmt.expr.args[0] is call.args[0]
    assert out.stmt.expr.args[2] is call.args[2]


def test_skip_sequencing_step():
    """A leading empty statement steps away without touching state."""
    from rsccore.semantics.tables import RuntimeTables
    from rsccore.semantics.irsc import IrscMachine
    from rsccore.syntax import BSeq, SSkip
    sp, _ = _ssa_text("var x = 1;\n;\nvar y = 2;\n")
    m = IrscMachine(RuntimeTables(sp))
    c = m.initial_top()
    seen_skip_elim = False
    for _ in range(50):
        r = m.step(c)
        if r[0] != "ok":
            break
        before, c = c, r[1]
        if isinstance(before.focus, BSeq) and \
                isinstance(before.focus.stmt, SSkip):
            assert c.focus is before.focus.rest
            assert c.store == before.store
            seen_skip_elim = True
    assert seen_skip_elim


def test_conditional_on_true_picks_first_branch():
    sp, _ = _ssa_text("""
/*@ (c: bool) => number */
function pick(c) {
  if (c) { return 1; }
  return 2;
}
""")
    assert run(sp, entry="pick", args=[True]).value == 1
    assert run(sp, entry="pick", args=[False]).value == 2


def test_field_read_on_number_sticks():
    sp, _ = _ssa_text("""
class P {
  f : nat;
  constructor(f: nat) { this.f = f; }
}

/*@ (x: number) => number */
function bad(x) { return x.f; }
""")
    r = run(sp, entry="bad", args=[5])
    assert r.status == "stuck"
    assert "non-object" in r.reason


def test_checked_cast_failure_sticks_target_machine_only():
    """An unguarded downcast executed on a base-class value fails the
    target machine's checked cast (the unchecked source machine sails
    past it, which is exactly the behavior the static cast rule makes
    unreachable in accepted programs)."""
    src = (CORPUS / "bad_cast_flags.rsc").read_text() + """
var t0 = new Type(1);
var r0 = bad(t0);
"""
    sp, _ = _ssa_text(src)
    r = run(sp, fuel=10_000, machine="frsc")
    assert r.status == "stuck"
    assert "cast" in r.reason
    r2 = run(sp, fuel=10_000, machine="irsc")
    assert r2.status == "terminal"


def test_precondition_checked_at_invoke():
    sp, _ = _ssa_text("""
class D {
  g : nat;
  constructor() { this.g = 0; }
  /*@ (x: number) => number requires x > 0 */
  half(x) { return x / 2; }
}
var d = new D();
var ok = d.half(4);
""")
    r = run(sp, machine="frsc")
    assert r.status == "terminal"
    sp2, _ = _ssa_text("""
class D {
  g : nat;
  constructor() { this.g = 0; }
  /*@ (x: number) => number requires x > 0 */
  half(x) { return x / 2; }
}
var d = new D();
var bad = d.half(0);
""")
    r2 = run(sp2, machine="frsc")
    assert r2.status == "stuck"
    assert "precondition" in r2.reason


# ---------------------------------------------------------------------------
# the runtime both machines share

_CLASSES = """
class P {
  f : number;
  constructor(f: number) { this.f = f; }
  /*@ () => number */
  get_f() { return this.f; }
}
class Q {
  g : number;
}
"""


@pytest.mark.parametrize("body,args,reason", [
    ("function t(x) { return x.f; }", [5], "field read on a non-object"),
    ("function t(x) { return x.f; }", [[1]], "field read on a non-object"),
    ("function t(x) { x.f = 1; return 0; }", [5],
     "field write on a non-object"),
    ("function t(x) { var p = new P(1); return p.h; }", [0],
     "unknown field 'h' on P"),
    ("function t(x) { var p = new P(1); p.h = 2; return 0; }", [0],
     "unknown field 'h' on P"),
    ("function t(x) { return x(1); }", [VClosure("nope", ())],
     "unknown function 'nope'"),
    ("function t(x) { var p = new P(1); return p.m(); }", [0],
     "unknown method 'm' on P"),
    ("function t(x) { return x(1); }", [5], "call of a non-function value"),
    ("function t(x) { var q = new Q(1); return 0; }", [0],
     "class Q has no constructor but arguments were supplied"),
], ids=["read-number", "read-array", "write-number", "read-unknown-field",
        "write-unknown-field", "unknown-function", "unknown-method",
        "call-non-function", "new-args-without-constructor"])
def test_shared_failures_stick_alike(body, args, reason):
    """The forms both machines share fail with one reason on both."""
    sp, _ = _ssa_text(_CLASSES + "/*@ (x: number) => number */\n" + body)
    for machine in ("frsc", "irsc"):
        r = run(sp, entry="t", args=args, machine=machine)
        assert (r.status, r.reason) == ("stuck", reason), machine


_COMPOUND = """
class Ctr {
  n : number;
  v : number;
  constructor() { this.n = 0; this.v = 10; }
}

/*@ (c: Ctr) => number */
function bump(c) { c.n = c.n + 1; return 0; }

/*@ (c: Ctr, d: Ctr) => Ctr */
function pick(c, d) { c.n = c.n + 1; return d; }

/*@ () => number */
function element() {
  var c = new Ctr();
  var a = [1, 2];
  a[bump(c)] += 5;
  a[bump(c)]++;
  return c.n * 100 + a[0];
}

/*@ () => number */
function field() {
  var c = new Ctr();
  var d = new Ctr();
  pick(c, d).v += 5;
  pick(c, d).v--;
  return c.n * 100 + d.v;
}
"""


@pytest.mark.parametrize("entry,expected", [("element", 207),
                                            ("field", 214)])
def test_compound_assignment_evaluates_target_once(entry, expected):
    """`a[i] op= e`, `a[i]++` and `o.f op= e` evaluate the array, index and
    object once each: two compound assignments bump the counter twice."""
    sp, theta = _ssa_text(_COMPOUND)
    for machine in ("frsc", "irsc"):
        r = run(sp, entry=entry, machine=machine)
        assert (r.status, r.value) == ("terminal", expected), machine
    assert simulate(sp, theta, entry=entry).status == "ok"


def test_machines_do_not_import_each_other():
    """Each machine is its own implementation of what the SSA translation
    changes; what they share comes from the shared runtime modules."""
    import ast
    from pathlib import Path
    sem = Path(__file__).resolve().parent.parent / "src" / "rsccore" / \
        "semantics"
    for mine, other in (("frsc", "irsc"), ("irsc", "frsc")):
        tree = ast.parse((sem / f"{mine}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[-1] != other, mine
                assert other not in {a.name for a in node.names}, mine
            elif isinstance(node, ast.Import):
                assert not any(a.name.split(".")[-1] == other
                               for a in node.names), mine


def test_translation_and_checker_do_not_import_the_machines():
    """The SSA translation and the checker own what they use of the
    functional language (substitution, context application); neither
    imports a machine or the simulation harness."""
    import ast
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src" / "rsccore"
    machines = {"frsc", "irsc", "simulate"}
    for path in [src / "ssa.py", *sorted((src / "checker").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + \
                    [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [n for a in node.names for n in a.name.split(".")]
            else:
                continue
            assert not machines & set(names), f"{path.name}:{node.lineno}"



def test_only_the_ssa_rules_translate_statements():
    """The translation rules for declarations, assignments, field writes,
    value statements, returns and result joins have one owner,
    `ssa.SsaRules`: the simulation harness neither imports these forms
    nor dispatches on them."""
    import ast
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "src" / "rsccore" / \
        "semantics" / "simulate.py"
    forms = {"SVarDecl", "SAssign", "SFieldAssign", "SExprStmt", "BReturn",
             "BIte"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            continue
        found += [f"{n}:{node.lineno}" for n in sorted(names & forms)]
    assert found == []


def test_one_callee_rule_and_one_value_equality():
    """Only the SSA rules decide what a callee name means, and only
    `values.values_equal` looks inside a closure value."""
    import ast
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src" / "rsccore"
    found = []
    for path in sorted(src.rglob("*.py")):
        rel = str(path.relative_to(src))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and \
                    node.name == "is_global" and rel != "ssa.py":
                found.append(f"{rel}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "caps" and \
                    rel not in ("semantics/values.py",
                                "semantics/stepper.py"):
                found.append(f"{rel}:{node.lineno}")
    assert found == []


_THREE_LEVELS = """
class A {
  /*@ invariant this.a >= 0 */
  a : number;
  constructor(a: number) { this.a = a; }
  base() : number { return this.a + 100; }
}

class B extends A {
  b : number;
  constructor(a: number, b: number) { this.b = b; this.a = a; }
}

class C extends B {
  /*@ invariant this.c > this.b */
  c : number;
  constructor(a: number, b: number, c: number) {
    this.c = c; this.b = b; this.a = a;
  }
}

/*@ () => C */
function make() { return new C(1, 2, 3); }

/*@ () => number */
function inherited() { var x = new C(1, 2, 3); return x.base(); }

/*@ () => number */
function badCast() {
  var x = new C(-1, 5, 3);
  var y = <C> x;
  return y.c;
}
"""


def test_three_level_hierarchy():
    """Fields are laid out root first, whatever order the constructor
    writes them in; a method is found on the grandparent; a cast checks
    the invariants leaf first, so C's fails before A's is looked at."""
    sp, theta = _ssa_text(_THREE_LEVELS)
    for machine in ("frsc", "irsc"):
        r = run(sp, entry="make", machine=machine)
        assert r.render() == "C {a: 1, b: 2, c: 3}", machine
        r = run(sp, entry="inherited", machine=machine)
        assert (r.status, r.value) == ("terminal", 101), machine
    for entry, value in (("make", "C {a: 1, b: 2, c: 3}"),
                         ("inherited", "101")):
        rep = simulate(sp, theta, entry=entry)
        assert (rep.status, rep.value) == ("ok", value), rep.detail
    reason = "cast failure: invariant of C does not hold"
    r = run(sp, entry="badCast", machine="frsc")
    assert (r.status, r.reason) == ("stuck", reason)
    # the source machine does not check casts
    r = run(sp, entry="badCast", machine="irsc")
    assert (r.status, r.value) == ("terminal", 3)
    rep = simulate(sp, theta, entry="badCast")
    assert (rep.status, rep.detail) == ("stuck",
                                        f"target machine stuck: {reason}")


def test_only_the_class_table_follows_parents():
    """The machines and the shape pass resolve the class hierarchy through
    `ClassTable`; none of them reads a `ClassDecl.parent` itself."""
    import ast
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src" / "rsccore"
    files = sorted((src / "semantics").glob("*.py")) + \
        [src / "checker" / "twophase.py"]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute) and
                        node.attr == "parent"), \
                f"{path.name}:{node.lineno} reads .parent"
