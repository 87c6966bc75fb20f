"""Constraint generation: the typing rules' shapes, constructor
rewriting, two-phase overload expansion, casts, verdicts on the
positive/negative corpus and a two-accumulator loop, and the solver
counters of a corpus check."""

import ast

import pytest

from conftest import (
    CORPUS, LOOP_K2, ROOT, check, check_text, parse, parse_text,
)

from rsccore.checker import check_program
from rsccore.checker.ctor import CtorError, ctor_rewrite
from rsccore.logic import ClassTable
from rsccore.syntax import body_str, pred_str, type_str, walk_tree


# -- rule-level shapes ---------------------------------------------------------


def test_var_rule_selfifies():
    r = check_text("""
/*@ (x: nat) => nat */
function f(x) { return x; }
""")
    assert r.verdict == "verified"
    rets = [c for c in r.constraints if c.rule == "RET"]
    assert rets and "v = x" in type_str(rets[0].lhs)


def test_const_rule_exact():
    r = check_text("""
/*@ () => {v:number | v = 7} */
function f() { return 7; }
""")
    assert r.verdict == "verified"


def test_const_rule_wrong_value_rejected():
    r = check_text("""
/*@ () => {v:number | v = 7} */
function f() { return 8; }
""")
    assert r.verdict == "errors"


def test_phi_constraints_emitted_for_loop():
    r = check(CORPUS / "ssa_reduce.rsc")
    joins = [c for c in r.constraints if c.rule == "LQ-CHK-CTX-LETIF"
             and c.kind == "sub"]
    # entry and back-edge constraints for both joined variables
    assert len(joins) >= 4
    assert any("v = i0" in type_str(c.lhs) for c in joins)


def test_function_subtyping_contravariant():
    """(x:{v >= 0}) => nat <: (x:{v >= 5}) => nat holds; flipping the
    parameter bounds is rejected."""
    ok = check_text("""
/*@ (f: (x: {v:number | v >= 0}) => nat, y: {v:number | v >= 5}) => nat */
function apply5(f, y) { return f(y); }

/*@ (x: {v:number | v >= 0}) => nat */
function g(x) { return x; }

/*@ (y: {v:number | v >= 5}) => nat */
function h(y) { return apply5(g, y); }
""")
    assert ok.verdict == "verified"
    worse = check_text("""
/*@ (f: (x: {v:number | v >= 0}) => nat, y: {v:number | v >= 0}) => nat */
function applyAll(f, y) { return f(y); }

/*@ (x: {v:number | v >= 5}) => {v:number | v >= 0} */
function g5(x) { return x; }

/*@ (y: {v:number | v >= 0}) => nat */
function h(y) { return applyAll(g5, y); }
""")
    assert worse.verdict == "errors"


def test_immutable_write_outside_constructor_rejected():
    r = check_text("""
class C {
  immutable f : nat;
  constructor(f: nat) { this.f = f; }
  breakIt(x: nat) { this.f = x; }
}
""")
    assert r.verdict == "errors"
    assert any("immutable field" in d.message for d in r.errors())


def test_mutable_write_checked_against_declared_bound():
    r = check_text("""
class C {
  g : nat;
  constructor(g: nat) { this.g = g; }
  setNeg() { this.g = -1; }
}
""")
    assert r.verdict == "errors"


# -- constructor rewriting -------------------------------------------------------


def _field_class():
    return parse(CORPUS / "field.rsc")


def test_ctor_rewrite_shape():
    p = _field_class()
    ct = ClassTable(p)
    cls = p.classes[0]
    rewritten, wit = ctor_rewrite(cls, ct)
    body = body_str(rewritten.body)
    assert "var _h = h" in body and "var _w = w" in body and \
        "var _dens = d" in body
    assert "ctor_init(_w, _h, _dens)" in body
    assert wit == {"w": "w", "h": "h", "dens": "d"}


def test_ctor_rejects_method_call_on_this():
    r = check_text("""
class A {
  f : nat;
  constructor() { this.setF(1); }
  setF(x: nat) { this.f = x; }
}
""")
    assert r.verdict == "errors"
    assert any("method" in d.message and "construction" in d.message
               for d in r.errors())


def test_ctor_rejects_field_read():
    r = check_text("""
class A {
  f : nat;
  g : nat;
  constructor(f: nat) { this.f = f; this.g = this.f; }
}
""")
    assert r.verdict == "errors"


def test_ctor_rejects_this_escape():
    r = check_text("""
/*@ (a: A) => number */
function leak(a) { return 0; }

class A {
  f : nat;
  constructor(f: nat) { leak(this); this.f = f; }
}
""")
    assert r.verdict == "errors"


def test_ctor_requires_all_fields_initialized():
    r = check_text("""
class A {
  f : nat;
  g : nat;
  constructor(f: nat) { this.f = f; }
}
""")
    assert r.verdict == "errors"
    assert any("initialize" in d.message for d in r.errors())


def test_ctor_runs_a_loop_before_its_field_write():
    from rsccore.semantics import run
    from rsccore.ssa import ssa_program
    text = """
class P {
  x : number;
  constructor(a: number) { var i = 0; while (i < a) { i = i + 1; } this.x = i; }
}
/*@ (a: number) => number */
function mk(a) { return new P(a).x; }
"""
    assert check_text(text).verdict == "verified"
    sp, _ = ssa_program(parse_text(text))
    for machine in ("irsc", "frsc"):
        r = run(sp, entry="mk", args=[3], machine=machine)
        assert (r.status, r.value) == ("terminal", 3), machine


def test_empty_class_default_constructor():
    r = check_text("""
class E {
}
var e = new E();
""")
    assert r.verdict == "verified"


def _opens_existentials(node) -> bool:
    """A `while` or `if` on `isinstance(..., RExists)` whose body allocates
    a fresh name."""
    tests_rexists = any(
        isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and
        c.func.id == "isinstance" and len(c.args) == 2 and
        isinstance(c.args[1], ast.Name) and c.args[1].id == "RExists"
        for c in ast.walk(node.test))
    return tests_rexists and any(
        isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute) and
        c.func.attr == "fresh"
        for stmt in node.body for c in ast.walk(stmt))


def test_only_the_type_env_opens_existentials():
    """Opening an existential into fresh bindings has one owner,
    `TypeEnv.open`: no other function in the checker or the logic layer
    branches or loops on `RExists` and allocates fresh names in it."""
    src = ROOT / "src" / "rsccore"
    found = []
    for path in [src / "logic.py"] + sorted((src / "checker").glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [(None, d) for d in tree.body] + [
            (c.name, d) for c in tree.body if isinstance(c, ast.ClassDef)
            for d in c.body]
        for owner, d in defs:
            if not isinstance(d, ast.FunctionDef):
                continue
            for node in ast.walk(d):
                if isinstance(node, (ast.While, ast.If)) and \
                        _opens_existentials(node):
                    found.append(f"{path.name}:{owner + '.' if owner else ''}"
                                 f"{d.name}")
    assert found == ["logic.py:TypeEnv.open"]


# -- two-phase overloads -----------------------------------------------------------


def _expand(fn, p):
    """`two_phase_expand` of `fn` with the clone check that
    `check_program` builds for `p`, under the default solver
    configuration."""
    from rsccore.checker import _class_pass, _clone_check
    from rsccore.checker.twophase import two_phase_expand
    from rsccore.logic import NameSupply
    from rsccore.solver import SolverConfig
    classes = ClassTable(p)
    _, ctor_inits, witnesses = _class_pass(p, classes, NameSupply(), [])
    return two_phase_expand(fn, _clone_check(p, classes, SolverConfig(),
                                             ctor_inits, witnesses))


def test_two_phase_reduce_clones():
    p = parse(CORPUS / "overload_reduce.rsc")
    fn = next(f for f in p.functions if f.name == "$reduce")
    clones = _expand(fn, p)
    assert len(clones) == 2
    b1 = body_str(clones[0].decl.body)
    b2 = body_str(clones[1].decl.body)
    # conjunct 1 (arity 2): the three-arg path is dead code
    assert b1 == ("if ((2 === 3)) {\n  return assert(false);\n} else {\n"
                  "  return reduce(slice(a, 1), f, get(a, 0));\n}")
    # conjunct 2 (arity 3): the slice path is dead code
    assert b2 == ("if ((3 === 3)) {\n  return reduce(a, f, x);\n} else {\n"
                  "  return assert(false);\n}")
    # each clone is a copy: the original keeps arguments.length and shares
    # no statement or body node with either clone
    assert "(arguments.length === 3)" in body_str(fn.body)
    orig = {id(n) for n in walk_tree(fn.body)}
    for c in clones:
        assert not orig & {id(n) for n in walk_tree(c.decl.body)}


def test_two_phase_clone_with_a_loop():
    """Phase one reaches the statements of a clone's body: under the
    one-argument conjunct, the two-argument update is dead code."""
    p = parse_text("""/*@ (x: number) => number
    (x: number, y: number) => number */
function add(x, y) { var r = x; var i = 0; while (i < 1) { i = i + 1; }\
 if (arguments.length === 2) { r = r + y; } return r; }
""")
    clones = _expand(p.functions[0], p)
    assert [c.name for c in clones] == ["add@1", "add@2"]
    assert body_str(clones[0].decl.body) == (
        "var r = x;\nvar i = 0;\nwhile ((i < 1)) {\n  i = (i + 1);\n}\n"
        "if ((1 === 2)) {\n  assert(false);\n} else {\n  ;\n}\nreturn r;")
    assert "r = (r + y);" in body_str(clones[1].decl.body)


# An overloaded function in a program with a class hierarchy: conjunct 1
# takes a `B`, conjunct 2 two numbers, and `%s` is guarded to run only
# under conjunct 1.
_PHASE_ONE_PROGRAM = """\
class A {
  immutable f : number;
  constructor(f: number) { this.f = f; }
  getF() : number { return this.f; }
}
class B extends A {
  immutable g : number;
  immutable k : (number) => number;
  constructor(f: number, g: number, k: (number) => number) {
    this.f = f; this.g = g; this.k = k;
  }
  getG() : number { return this.g; }
}

/*@ (b: B, k: (number) => number) => number */
function apply1(b, k) { return k(b.g); }

/*@ (b: B, k: (number, number) => number) => number */
function apply2(b, k) { return k(b.g, b.f); }

/*@ (x: B) => number
    (x: number, y: number) => number */
function pick(x, y) {
  var r = 0;
  function inc(z) { return z + 1; }
  if (arguments.length === 1) { %s }
  return r;
}
"""

_DEAD = "assert(false);"


@pytest.mark.parametrize("stmt, under_1, under_2", [
    # field read: own, inherited, unknown; conjunct 2 reads a number
    ("r = x.g;", ["r = x.g;"], [_DEAD]),
    ("r = x.f;", ["r = x.f;"], [_DEAD]),
    ("r = x.h;", [_DEAD], [_DEAD]),
    # method call: own, inherited, unknown
    ("r = x.getG();", ["r = x.getG();"], [_DEAD]),
    ("r = x.getF();", ["r = x.getF();"], [_DEAD]),
    ("r = x.zap();", [_DEAD], [_DEAD]),
    # `this`, which no function binds
    ("r = this.f;", [_DEAD], [_DEAD]),
    # `new` and a cast
    ("var a = new A(r); r = a.getF();",
     ["var a = new A(r);", "r = a.getF();"],
     ["var a = new A(r);", "r = a.getF();"]),
    # (LQ-CHK-CAST: a number cannot be cast to class A under conjunct 2)
    ("var a = <A> x; r = a.f;", ["var a = <A> x;", "r = a.f;"],
     [_DEAD, _DEAD]),
    # a closure as an argument, well and ill placed
    ("r = apply1(x, inc);", ["r = apply1(x, inc);"], [_DEAD]),
    ("r = apply1(inc, inc);", [_DEAD], [_DEAD]),
    # the unannotated `inc` called, directly and through a variable, or
    # used as a value (LQ-CHK-CALL, LQ-CHK-VAR); a class where a subclass
    # is expected (A is not a subclass of B); a function of the wrong
    # arity
    ("r = inc(r);", [_DEAD], [_DEAD]),
    ("var c = inc; r = c(r);", [_DEAD, _DEAD], [_DEAD, _DEAD]),
    ("var q = inc(r); q = r;", [_DEAD, _DEAD], [_DEAD, _DEAD]),
    ("var a = new A(r); r = apply1(a, inc);",
     ["var a = new A(r);", _DEAD], ["var a = new A(r);", _DEAD]),
    ("r = apply2(x, x.k);", [_DEAD], [_DEAD]),
    # a function-typed field called with its arity and with another
    ("var h = x.k; r = h(r);", ["var h = x.k;", "r = h(r);"],
     [_DEAD, _DEAD]),
    ("var h = x.k; r = h(r, r);", ["var h = x.k;", _DEAD], [_DEAD, _DEAD]),
    # an unknown function, a call with too few arguments, a call of a
    # non-function, and the overload itself called with two arguments and
    # with three, which no conjunct takes
    ("r = zork(r);", [_DEAD], [_DEAD]),
    ("r = apply1(x);", [_DEAD], [_DEAD]),
    ("r = x(r);", [_DEAD], [_DEAD]),
    ("r = pick(r, r);", ["r = pick(r, r);"], ["r = pick(r, r);"]),
    ("r = pick(r, r, r);", [_DEAD], [_DEAD]),
    # statements: an `if` and a `while` condition, an assignment to a
    # name the conjunct lacks, a write to an immutable field outside the
    # constructor (LQ-CHK-ASGN), a call for its effect
    ("if (x.g > 0) { r = 1; }",
     ["if ((x.g > 0)) {\n  r = 1;\n} else {\n  ;\n}"], [_DEAD]),
    ("while (x.g > r) { r = r + 1; }",
     ["while ((x.g > r)) {\n  r = (r + 1);\n}"], [_DEAD]),
    ("y = r;", [_DEAD], ["y = r;"]),
    ("x.g = r;", [_DEAD], [_DEAD]),
    ("x.getG();", ["x.getG();"], [_DEAD]),
    # a cast to a type that names `y`, which conjunct 1 lacks (WF)
    ("r = <{v: number | v = y}> r;", [_DEAD],
     ["r = <{v:number | v = y}> r;"]),
])
def test_phase_one_rules(stmt, under_1, under_2):
    """Phase one's structural errors, pinned by the clone bodies they
    yield: the innermost statement that holds the error becomes
    `assert(false)`."""
    p = parse_text(_PHASE_ONE_PROGRAM % stmt)
    fn = next(f for f in p.functions if f.name == "pick")
    clones = _expand(fn, p)
    assert [c.name for c in clones] == ["pick@1", "pick@2"]
    for arity, clone, under in zip((1, 2), clones, (under_1, under_2)):
        guarded = "\n".join(f"  {line}" for s in under
                            for line in s.split("\n"))
        assert body_str(clone.decl.body) == (
            f"var r = 0;\nif (({arity} === 1)) {{\n{guarded}\n}} else {{\n"
            "  ;\n}\nreturn r;")


def test_phase_one_ill_shaped_return_condition():
    """A conditional whose branches return is replaced, as a whole, by
    `return assert(false)` when its condition is ill-shaped."""
    p = parse_text(_PHASE_ONE_PROGRAM % "if (x.g > 0) { return r; }")
    fn = next(f for f in p.functions if f.name == "pick")
    b1, b2 = (body_str(c.decl.body) for c in _expand(fn, p))
    assert b1 == ("var r = 0;\nif ((1 === 1)) {\n  if ((x.g > 0)) {\n"
                  "    return r;\n  } else {\n    return r;\n  }\n"
                  "} else {\n  return r;\n}")
    assert b2 == ("var r = 0;\nif ((2 === 1)) {\n  return assert(false);\n"
                  "} else {\n  return r;\n}")


@pytest.mark.parametrize("sig, cond, ret1, body2", [
    # dispatch on the arity: under conjunct 1, `y` is no parameter
    ("(x: number, y: string) => string", "arguments.length === 2", "y",
     "if ((2 === 2)) {\n  return y;\n} else {\n  return assert(false);\n}"),
    # dispatch on the tag
    ("(x: string) => string", 'typeof x === "number"', "0",
     'if ((typeof x === "number")) {\n  return assert(false);\n} else {'
     "\n  return x;\n}"),
], ids=["arity", "typeof"])
def test_an_overload_whose_branches_return_different_bases(sig, cond, ret1,
                                                           body2):
    """Phase one checks a returned value against the conjunct's result
    where it is returned, so only the return that does not fit becomes
    `return assert(false)`, not the conditional that joins both."""
    p = parse_text(f"""/*@ (x: number) => number
    {sig} */
function f(x, y) {{
  if ({cond}) {{ return {ret1}; }}
  return x;
}}
""")
    _, clone2 = _expand(p.functions[0], p)
    assert body_str(clone2.decl.body) == body2
    assert check_program(p).verdict == "verified"


def test_two_phase_verifies_overload():
    r = check(CORPUS / "overload_reduce.rsc")
    assert r.verdict == "verified"


def test_overload_error_names_conjunct():
    r = check_text("""
/*@ (x: {v:number | v >= 0}) => number
    (x: bool, y: number) => number */
function f(x, y) {
  return x + 1;
}
""")
    # under conjunct 2, x is a bool, so "x + 1" is ill-typed; the
    # replacing dead-code assertion is *live* there: rejected, blaming
    # the conjunct
    assert r.verdict == "errors"
    assert any("overload 2" in d.message for d in r.errors())


@pytest.mark.parametrize("use, message", [
    ("f(1, 2)", None),
    ("f(1, 2, 3)", "no overload takes 3 argument(s)"),
    ("app1(f)", None),
    ("app3(f)", "no overload conjunct matches the expected function type"),
])
def test_overload_conjunct_chosen_by_arity(use, message):
    """A call, and a use where a function type is expected, take the
    conjunct with as many parameters."""
    r = check_text(f"""
/*@ (x: number) => number
    (x: number, y: number) => number */
function f(x, y) {{ return x; }}

/*@ (k: (number) => number) => number */
function app1(k) {{ return k(1); }}

/*@ (k: (number, number, number) => number) => number */
function app3(k) {{ return k(1, 2, 3); }}

/*@ () => number */
function main() {{ return {use}; }}
""")
    assert [(d.rule, d.message) for d in r.errors()] == \
        ([] if message is None else [("LQ-CHK-CALL", message)])


def test_single_conjunct_intersection_is_identity():
    from rsccore.syntax import RInter
    p = parse(CORPUS / "overload_reduce.rsc")
    fn = next(f for f in p.functions if f.name == "$reduce")
    fn2 = type(fn)(fn.name, fn.params,
                   RInter((fn.signature.conjuncts[1],)), fn.body, fn.span)
    clones = _expand(fn2, p)
    assert len(clones) == 1
    assert "assert(false)" in body_str(clones[0].decl.body)


def test_an_overload_beside_a_function_that_does_not_translate():
    """Phase one checks clones without an unannotated function whose body
    does not translate; the real check reports that function's error."""
    r = check_text("""function g(z) { return w; }

/*@ (x: number) => number
    (x: number, y: number) => number */
function f(x, y) {
  if (arguments.length === 2) { return g(x) + y; }
  return x;
}
""")
    assert [(d.span.line, d.rule, d.message) for d in r.errors()] == \
        [(1, "SSA", "unbound variable 'w'")]


def _with_unread_parameter(f):
    """`f` with a trailing parameter `zz: number` that its body never
    reads, and a second conjunct that types it.  An overloaded `f` stays
    as it is: it has its conjuncts already, and its body reads its arity
    (`arguments.length`), so a trailing parameter would not go unread."""
    from rsccore.syntax import FuncDecl, RFun, RInter, R_NUM, with_field
    sig = f.signature
    if not isinstance(sig, RFun) or f.body is None:
        return f
    wide = with_field(sig, "params", sig.params + (("zz", R_NUM),))
    return FuncDecl(f.name, [*f.params, "zz"], RInter((sig, wide)), f.body,
                    f.span, f.is_ghost, f.captures)


@pytest.mark.parametrize("name", [p.name for p in sorted(
    CORPUS.glob("*.rsc"))] + ["LOOP_K2"])
def test_an_unread_parameter_overload_keeps_the_verdict(name):
    """Metamorphic: giving each annotated function an unread trailing
    parameter, typed by a second conjunct, changes neither the verdict
    nor the lines of the errors."""
    def load():
        return parse_text(LOOP_K2) if name == "LOOP_K2" else \
            parse(CORPUS / name)

    def outcome(p):
        r = check_program(p)
        return r.verdict, sorted({d.span.line for d in r.errors()})
    wide = load()
    wide.functions = [_with_unread_parameter(f) for f in wide.functions]
    assert outcome(wide) == outcome(load())


# -- casts --------------------------------------------------------------------


def test_compat_subtype_accepts_guarded_downcast():
    r = check(CORPUS / "cast_flags.rsc")
    assert r.verdict == "verified"


def test_compat_subtype_rejects_unguarded_downcast():
    r = check(CORPUS / "bad_cast_flags.rsc")
    assert r.verdict == "errors"
    assert any(d.rule == "LQ-CHK-CAST" for d in r.errors())


def test_array_literal_length_verifies():
    r = check_text("""
/*@ () => number */
function f() {
  var a = [1, 2];
  return a.length;
}
""")
    assert r.verdict == "verified", [d.render() for d in r.diagnostics]


def test_array_literal_length_is_exact():
    """The literal's type pins its length, so a wrong length claim fails
    at the return with that length in the counterexample."""
    r = check_text("""
/*@ () => {v:number | v = 3} */
function f() {
  var a = [1, 2];
  return a.length;
}
""")
    assert r.verdict == "errors"
    [d] = r.errors()
    assert d.rule == "RET"
    assert "len(a!" in d.message and ") = 2" in d.message


def test_cast_base_mismatch():
    r = check_text("""
/*@ (x: number) => bool */
function f(x) { return <bool> x; }
""")
    assert r.verdict == "errors"
    assert any("cast" in d.message.lower() for d in r.errors())


# -- verdict corpus ---------------------------------------------------------------


POSITIVE = ["minindex.rsc", "head.rsc", "ssa_reduce.rsc", "typeof.rsc",
            "overload_reduce.rsc", "field_ghost.rsc", "cast_flags.rsc"]

NEGATIVE = {
    "bad_head0.rsc": 8,
    "bad_undefined.rsc": 2,
    "bad_field_ctor.rsc": 28,
    "bad_field_getdensity.rsc": 35,
    "bad_field_reset.rsc": 29,
    "bad_cast_flags.rsc": 20,
}


@pytest.mark.parametrize("name", POSITIVE)
def test_positive_corpus(name):
    r = check(CORPUS / name)
    assert r.verdict == "verified", [d.render() for d in r.errors()[:3]]


@pytest.mark.parametrize("name,line", sorted(NEGATIVE.items()))
def test_negative_corpus_rejects_at_line(name, line):
    r = check(CORPUS / name)
    assert r.verdict == "errors"
    assert any(d.span.line == line for d in r.errors()), \
        [(d.span.line, d.message) for d in r.errors()]


def test_path_sensitivity_mutation():
    """Removing the guard a VC needs flips the verdict (criterion: the
    checker is genuinely path-sensitive)."""
    src = (CORPUS / "head.rsc").read_text()
    assert check_text(src).verdict == "verified"
    mutated = src.replace("if (0 < a.length) return head(a);",
                          "return head(a);")
    assert mutated != src
    assert check_text(mutated).verdict == "errors"


def test_dual_route_every_emitted_sub_is_well_sorted():
    """Every emitted subtyping constraint embeds to a well-sorted
    hypothesis (the sort checker accepts all clause queries)."""
    from rsccore.solver.normal import NormError, build_formula
    from rsccore.logic import drop_kvars
    r = check(CORPUS / "field_ghost.rsc")
    assert r.verdict == "verified"
    for cl in r.clauses:
        hyp = drop_kvars(cl.hyp_pred)
        build_formula(hyp, cl.sorts, True)  # raises NormError if ill-sorted


GUARD_MUTATIONS = [
    # file, guarded fragment, unguarded replacement
    ("head.rsc", "if (0 < a.length) return head(a);", "return head(a);"),
    ("typeof.rsc", 'if (typeof x === "number") r = r + x;', "r = r + x;"),
    ("cast_flags.rsc",
     "if (t.flags === 2) {\n    var o = <ObjectType> t;\n    return o.getProps();\n  }",
     "var o = <ObjectType> t;\n  return o.getProps();"),
    ("minindex.rsc", "if (a.length <= 0) return -1;", ""),
]


@pytest.mark.parametrize("name,guarded,unguarded", GUARD_MUTATIONS)
def test_guard_mutation_flips_verdict(name, guarded, unguarded):
    """Deleting a guard some verification condition needs flips the
    verdict: the checker is path-sensitive on the whole corpus."""
    src = (CORPUS / name).read_text()
    assert guarded in src, name
    assert check_text(src).verdict == "verified"
    mutated = src.replace(guarded, unguarded)
    r = check_text(mutated)
    assert r.verdict == "errors", name


def test_method_overriding_rejected():
    r = check_text("""
class A {
  m(x: number) : number { return x; }
}
class B extends A {
  m(x: number) : number { return x + 1; }
}
""")
    assert r.verdict == "errors"
    assert any("override" in d.message for d in r.errors())


def test_inheritance_cycle_rejected():
    r = check_text("""
class A extends B {
}
class B extends A {
}
""")
    assert r.verdict == "errors"
    assert any("cycle" in d.message for d in r.errors())


def test_refinement_in_annotation_rejects_mutable_field():
    r = check_text("""
class C {
  g : nat;
  constructor(g: nat) { this.g = g; }
  /*@ (x: {v:number | v < this.g}) => number */
  m(x) { return x; }
}
""")
    assert r.verdict == "errors"
    assert any("mutable field" in d.message for d in r.errors())


# -- the k = 2 loop: two accumulators carried beside the index -----------------


_LOOP_K2 = """/*@ (a: number[]) => number */
function f(a) {
  var i = 0;
  var s0 = 0;
  var s1 = 0;
  while (i CMP a.length) {
    var x = a[i];
    s0 = s0 + x;
    s1 = s1 + x;
    i = i + 1;
  }
  return i;
}
"""


def test_loop_with_two_accumulators_decides():
    """The safe loop verifies and its off-by-one twin fails at the array
    read on line 7.  Before Fourier-Motzkin merged repeated rows, this
    check ran for minutes and reached gigabytes of memory."""
    assert check_text(_LOOP_K2.replace("CMP", "<")).verdict == "verified"
    r = check_text(_LOOP_K2.replace("CMP", "<="))
    assert r.verdict == "errors"
    assert [d.span.line for d in r.errors()] == [7]


def _loop_source(k: int, cmp: str) -> str:
    """A while loop carrying `k` accumulators across its join; the array
    read is on line k + 5."""
    accs = [f"s{j}" for j in range(k)]
    return "\n".join(
        ["/*@ (a: number[]) => number */", "function f(a) {", "  var i = 0;"]
        + [f"  var {s} = 0;" for s in accs]
        + [f"  while (i {cmp} a.length) {{", "    var x = a[i];"]
        + [f"    {s} = {s} + x;" for s in accs]
        + ["    i = i + 1;", "  }", "  return i;", "}"]) + "\n"


def test_loop_with_eight_accumulators_fourier_motzkin_work(monkeypatch):
    """The loop with eight accumulators decides both twins, and its
    Fourier-Motzkin work is fixed: the calls, the rows each call adds
    and the prepared rows each call extends.  An equality that
    congruence closure proves never becomes a row, so these stay small."""
    from rsccore import solver
    from rsccore.solver import SolverConfig

    fm_solve = solver.fm_solve
    work = {}

    def counted(rows, prepared):
        work["calls"] += 1
        work["added"] += len(rows)
        work["prepared"] += len(prepared)
        return fm_solve(rows, prepared)

    monkeypatch.setattr(solver, "fm_solve", counted)
    seen = []
    for cmp in ("<", "<="):
        work.update(calls=0, added=0, prepared=0)
        r = check_program(parse_text(_loop_source(8, cmp)), SolverConfig())
        seen.append((r.verdict, [d.span.line for d in r.errors()],
                     dict(work)))
    assert seen == [
        ("verified", [], {"calls": 64, "added": 54, "prepared": 424}),
        ("errors", [13], {"calls": 53, "added": 43, "prepared": 287})]


def test_corpus_solver_counters(monkeypatch):
    """Checking the corpus, each file with a fresh solver config, makes
    a fixed number of validity queries, verdicts, cache misses (internal
    solver runs) and Fourier-Motzkin calls; an optimization of the solver
    must leave all of them equal.  The fixpoint asks no candidate that an
    earlier countermodel of its visit refutes."""
    import collections
    import sys

    from rsccore import solver
    from rsccore.solver import SolverConfig, fm

    counts = collections.Counter()
    check_valid, fm_solve = solver.check_valid, fm.solve
    check_internal = solver._check_internal

    def counted_check_valid(*args, **kwargs):
        verdict = check_valid(*args, **kwargs)
        counts["queries"] += 1
        counts[verdict.status] += 1
        return verdict

    def counted_check_internal(*args, **kwargs):
        counts["runs"] += 1
        return check_internal(*args, **kwargs)

    def counted_fm_solve(*args, **kwargs):
        counts["fm"] += 1
        return fm_solve(*args, **kwargs)

    # swap each function wherever a module binds it by name
    for name, mod in list(sys.modules.items()):
        if name == "rsccore" or name.startswith("rsccore."):
            for attr, value in list(vars(mod).items()):
                if value is check_valid:
                    monkeypatch.setattr(mod, attr, counted_check_valid)
                elif value is check_internal:
                    monkeypatch.setattr(mod, attr, counted_check_internal)
                elif value is fm_solve:
                    monkeypatch.setattr(mod, attr, counted_fm_solve)
    for path in sorted(CORPUS.glob("*.rsc")):
        check_program(parse(path), SolverConfig())
    assert dict(counts) == {"queries": 868, "valid": 454, "invalid": 202,
                            "unknown": 212, "runs": 854, "fm": 590}


def _swap_everywhere(monkeypatch, replacements: dict):
    """Replace each function wherever an rsccore module binds it by
    name, recursive calls within its own module included."""
    import sys

    for name, mod in list(sys.modules.items()):
        if name == "rsccore" or name.startswith("rsccore."):
            for attr, value in list(vars(mod).items()):
                for fn, wrapper in replacements.items():
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapper)


def test_corpus_lowers_each_hypothesis_once(monkeypatch):
    """Checking the corpus, each file with a fresh solver config, folds
    and lowers each distinct conjunct of its hypotheses once per config,
    1,032 of them over the 319 distinct hypotheses, and a negated goal
    once per goal and fixpoint visit: once for each of the 854 internal
    runs and once for each of the 308 goals that a countermodel refutes
    without a run.  Every fold is that of one lowering."""
    import collections

    from rsccore import infer, solver
    from rsccore.solver import SolverConfig, normal

    counts = collections.Counter()
    depth = collections.Counter()

    def top_level(fn, key):
        def counted(*args, **kwargs):
            if not depth[fn]:
                counts[key(*args, **kwargs)] += 1
            depth[fn] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[fn] -= 1
        return counted

    def lowered(p, sorts, positive=True):
        return "conjuncts" if positive else "negated_goals"

    def run(*args, **kwargs):
        counts["runs"] += 1
        return check_internal(*args, **kwargs)

    def refuted(queries, config=None):
        verdicts = filter_valid(queries, config)
        counts["refuted"] += verdicts.count(None)
        return verdicts

    check_internal, filter_valid = solver._check_internal, infer.filter_valid
    _swap_everywhere(monkeypatch, {
        solver._lower_hypothesis: top_level(solver._lower_hypothesis,
                                            lambda *a: "hypotheses"),
        normal.fold_pred: top_level(normal.fold_pred, lambda p: "folds"),
        normal.build_formula: top_level(normal.build_formula, lowered),
        check_internal: run,
        filter_valid: refuted,
    })
    for path in sorted(CORPUS.glob("*.rsc")):
        check_program(parse(path), SolverConfig())
    assert dict(counts) == {"hypotheses": 319, "folds": 2194,
                            "conjuncts": 1032, "negated_goals": 1162,
                            "runs": 854, "refuted": 308}
    assert counts["negated_goals"] == counts["runs"] + counts["refuted"]
    assert counts["folds"] == counts["conjuncts"] + counts["negated_goals"]


def test_corpus_verdicts_match_fresh_configs(monkeypatch):
    """Every query that checking the corpus asks gets the same verdict
    from the file's shared config, where its hypothesis was lowered for
    an earlier goal, as from a config of its own."""
    from rsccore import solver
    from rsccore.solver import SolverConfig

    check_valid = solver.check_valid
    asked = []

    def recorded(q, config=None):
        verdict = check_valid(q, config)
        asked.append((q, verdict))
        return verdict

    _swap_everywhere(monkeypatch, {check_valid: recorded})
    for path in sorted(CORPUS.glob("*.rsc")):
        check_program(parse(path), SolverConfig())
    assert len(asked) == 868
    for q, verdict in asked:
        alone = check_valid(q, SolverConfig())
        assert (alone.status, alone.model, alone.reason) == \
            (verdict.status, verdict.model, verdict.reason), q
