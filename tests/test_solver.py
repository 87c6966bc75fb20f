"""Validity-checker tests: the worked verification conditions, constant
folding, congruence, integrality tightening, conservativity, emission
determinism, the subprocess boundary, skeleton interning, and the
congruence closure against a quadratic reference."""

import gc
import os
import random
import stat
import subprocess
import sys

import pytest

from conftest import CORPUS, ROOT, external_solver_cmd

from rsccore.logic import S_ARR, S_BOOL, S_INT, S_STR, Sort
from rsccore.semantics.evalpred import eval_term
from rsccore.semantics.values import Heap, StuckError, apply_builtin
from rsccore.solver import (
    Query, SolverConfig, Verdict, check_valid, const_fold, emit_smtlib,
)
from rsccore.syntax import (
    PAtom, PNot, TBuiltin, TConst, TUF, TValueVar, TVar, p_and, p_eq,
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


from hypothesis import example, given, settings, strategies as st

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
    assert folded.value == eval_term(t, {}, Heap(), {})


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
                eval_term(ground, {}, heap, {})
            assert const_fold(ground) == ground
            for c in (0, 1):
                goal = p_eq(symbolic, TConst(c))
                assert not check_valid(_q(sorts, pinned, goal)).is_valid
            continue
        r = apply_builtin(src, [a, b], heap)
        assert eval_term(ground, {}, heap, {}) == r
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
        assert eval_term(eq, {}, heap, {}) is False
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
