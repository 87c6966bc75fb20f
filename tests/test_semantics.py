"""Interpreter and differential-harness tests: hand-derived evaluation
oracles, stuck states, fuel, lockstep simulation, and fault injection."""

import random
import sys

import pytest

from conftest import CORPUS, parse, parse_text

from rsccore.semantics import VClosure, run, simulate
from rsccore.ssa import ssa_program
from rsccore.syntax import SIte, SWhile


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


@pytest.mark.parametrize("inject,text,args", [
    (_drop_last_phi, _JOIN, [True]),
    (_swap_letif_branches, _JOIN, [True]),
    (_swap_loop_inits, _LOOP, []),
], ids=["dropped-phi", "swapped-letif-branches", "wrong-loop-init"])
def test_simulate_detects_injected_ssa_faults(monkeypatch, inject, text,
                                              args):
    """Each SSA fault, injected into the translation, is reported; the
    same program simulates cleanly without it."""
    import rsccore.ssa as ssa_mod

    sp, theta = ssa_program(parse_text(text))
    assert simulate(sp, theta, entry="f", args=args).status == "ok"
    inject(monkeypatch, ssa_mod)
    sp, theta = ssa_program(parse_text(text))
    rep = simulate(sp, theta, entry="f", args=args)
    assert rep.status in ("divergence", "stuck"), rep


def test_normalize_output_is_a_fixed_point(monkeypatch):
    """The simulation never normalizes a normalized term again, so every
    term normalize returns during a run must already be normal."""
    sim = sys.modules["rsccore.semantics.simulate"]
    real = sim.normalize
    depth, outs = [0], []

    def outermost(e):
        depth[0] += 1
        try:
            r = real(e)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            outs.append(r)
        return r

    monkeypatch.setattr(sim, "normalize", outermost)
    for sp, theta, entry, args in [
            (*_ssa(CORPUS / "minindex.rsc"), "minIndex", [[3, 1, 2]]),
            (*_ssa_text(_JOIN), "f", [False]),
            (*_ssa_text(_LOOP), "f", [])]:
        assert simulate(sp, theta, entry=entry, args=args).status == "ok"
    monkeypatch.undo()
    assert len(outs) > 100
    for e in outs:
        assert sim.terms_equal(real(e), e), e


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
        BReturn, BSeq, EConst, EFuncCall, EVal, EVar, SVarDecl,
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
    fill = EVal(0, nid=0)
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
