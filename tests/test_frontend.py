"""Lexer/parser/annotation tests: the corpus idioms parse, desugarings
fire, errors carry spans, and parsing is total."""

import random

import pytest

from conftest import CORPUS, parse, parse_text

from rsccore.frontend import load_prelude, parse_annotation_text
from rsccore.frontend.lexer import LexError
from rsccore.frontend.parser import ParseError
from rsccore.frontend.types_parser import ParseErrorBase, ResolveError
from rsccore.syntax import (
    ECast, EClosure, EFuncCall, EVar, R_NUM, RFun, RInter, body_str,
    expr_str, pred_str, type_str, walk_tree, BReturn,
)


def test_fig1_reduce_minindex_parses():
    p = parse(CORPUS / "minindex.rsc")
    names = [f.name for f in p.functions]
    # the nested step is lifted to a third top-level function
    assert names == ["reduce", "minIndex", "step"]
    step = p.functions[2]
    assert step.captures == ["a"]


def test_alias_with_parameter():
    p = parse_text("type idx2<a> = {v:nat | v < len(a)}\n")
    assert "idx2" in p.aliases
    assert p.aliases["idx2"].params == ["a"]


def test_empty_file():
    p = parse_text("")
    assert p.functions == [] and p.classes == [] and p.top is None


def _resolve(t):
    from rsccore.frontend.prelude import raw_prelude_aliases
    from rsccore.frontend.types_parser import TypeResolver
    from rsccore.syntax import NO_SPAN
    return TypeResolver(raw_prelude_aliases(), set()).resolve(t, NO_SPAN)


def test_annotation_dependent_param():
    ann = parse_annotation_text("<T>(a:T[], i:idx<a>) => T")
    assert ann.kind == "signature"
    sig = _resolve(ann.rtype)
    assert isinstance(sig, RFun)
    assert "len(a)" in type_str(sig)


def test_annotation_assert_signature():
    ann = parse_annotation_text("(b:{v:bool | v = true}) => A")
    sig = ann.rtype
    assert isinstance(sig, RFun)
    assert pred_str(sig.params[0][1].pred) == "v = true"


def test_annotation_stacked_intersection():
    ann = parse_annotation_text(
        "<A,B>(a:A[]+, f:(A, A, idx<a>) => A) => A\n"
        "<A,B>(a:A[], f:(B, A, idx<a>) => B, x:B) => B")
    sig = _resolve(ann.rtype)
    assert isinstance(sig, RInter)
    assert len(sig.conjuncts) == 2
    first = sig.conjuncts[0]
    assert "0 < len(v)" in type_str(first.params[0][1])


def test_prelude_lookup_assert():
    sigs = load_prelude()
    assert type_str(sigs["assert"]) == "<A>(b:{v:bool | v = true}) => A"


def test_prelude_lookup_length():
    sigs = load_prelude()
    s = type_str(sigs["length"])
    assert "v = len(a)" in s and "0 <= v" in s


def test_prelude_lookup_plus():
    sigs = load_prelude()
    assert type_str(sigs["+"]) == \
        "(x:number, y:number) => {v:number | v = x + y}"


def test_array_ops_desugar():
    p = parse_text("""
/*@ (a: number[], i: idx<a>, e: number) => number */
function f(a, i, e) {
  a[i] = e;
  var n = a.length;
  var s = a.slice(1);
  return a[i];
}
""")
    fn = p.functions[0]
    calls = [e.callee.name for e in walk_tree(fn.body)
             if isinstance(e, EFuncCall) and isinstance(e.callee, EVar)]
    assert "set" in calls and "length" in calls and "slice" in calls \
        and "get" in calls


def test_compound_assignment_desugar():
    p = parse_text("""
/*@ (x: number) => number */
function f(x) {
  x += 2;
  x++;
  return x;
}
""")
    s = body_str(p.functions[0].body)
    assert "(x + 2)" in s and "(x + 1)" in s
    # a target operand other than a variable, `this` or a constant is
    # evaluated once, into a temporary
    p = parse_text("""
class C {
  n : number;
  constructor() { this.n = 0; this.n += 1; }
}
/*@ (a: number[], c: C) => number */
function g(a, c) {
  a[c.n] += 2;
  a[0]++;
  c.n -= 1;
  return 0;
}
""")
    assert body_str(p.functions[0].body) == (
        "var $t0 = c.n;\nset(a, $t0, (get(a, $t0) + 2));\n"
        "set(a, 0, (get(a, 0) + 1));\nc.n = (c.n - 1);\nreturn 0;")
    assert body_str(p.classes[0].methods[0].body) == (
        "this.n = 0;\nthis.n = (this.n + 1);\nreturn this;")


def test_parse_error_has_span():
    with pytest.raises((ParseError, ParseErrorBase)) as ei:
        parse_text("function f( { }")
    assert ei.value.span.line >= 1
    assert ei.value.span.col >= 1


def test_lex_error_has_span():
    with pytest.raises(LexError) as ei:
        parse_text("var x = `;")
    assert ei.value.span.line == 1


def test_unknown_alias_arity():
    with pytest.raises(ParseErrorBase):
        parse_text("/*@ (a: idx<a,b>) => number */\nfunction f(a) { return 0; }")


def test_parse_is_total_fuzz():
    """Any input produces a Program or a positioned diagnostic, never an
    unstructured crash."""
    rng = random.Random(20260808)
    alphabet = "abcxyz01(){}<>=+-*/;:,.|&! \n\"'@#funcvarift"
    for _ in range(300):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 80)))
        try:
            parse_text(text)
        except (LexError, ParseError, ParseErrorBase):
            pass


def test_return_inside_loop_rejected():
    with pytest.raises(ParseErrorBase):
        parse_text("""
/*@ (n: number) => number */
function f(n) {
  while (n > 0) { return n; }
  return 0;
}
""")


def test_var_redeclaration_is_assignment():
    p = parse_text("""
/*@ (n: number) => number */
function f(n) {
  var x = 1, x2;
  var x = n;
  return x;
}
""")
    s = body_str(p.functions[0].body)
    assert s.count("var x =") == 1


def test_multi_return_normalization():
    p = parse_text("""
/*@ (n: number) => number */
function f(n) {
  if (n > 0) return 1;
  return 2;
}
""")
    s = body_str(p.functions[0].body)
    assert "return 1" in s and "return 2" in s and "if" in s


def test_alias_cycle_detected():
    with pytest.raises(ParseErrorBase):
        parse_text("type AA = BB\ntype BB = AA\n"
                   "/*@ (x: AA) => number */\nfunction f(x) { return 0; }")


def test_duplicate_function_rejected():
    with pytest.raises(ParseErrorBase):
        parse_text("/*@ (x: number) => number */\nfunction f(x) { return x; }\n"
                   "/*@ (x: number) => number */\nfunction f(x) { return x; }")


def test_duplicate_alias_rejected():
    with pytest.raises(ParseErrorBase):
        parse_text("type nat = {v:number | v >= 0}\n")


_REWRITES = """
/*@ (x: number) => number */
function inc(x) { return x + 1; }

/*@ (n: number) => number */
function outer(n) {
  var k = n > 0 ? n : 0 - n;
  function addK(y) { return y + k; }
  function twice(z) { return addK(addK(z)); }
  return twice(k);
}

/*@ (f: (number) => number, x: number) => number */
function apply(f, x) { return f(x); }

/*@ (m: number) => number */
function user(m) {
  return apply(inc, inc(<number> m));
}
"""


def _closures(body):
    return [(e.fname, [c.name for c in e.captures])
            for e in walk_tree(body) if isinstance(e, EClosure)]


def test_surface_rewrites_pinned():
    """Ternary hoisting, nested-function lifting with a captured local,
    a lifted function calling another, a global function passed as a
    value, and a cast inside a call, each rendered exactly."""
    fns = {f.name: f for f in parse_text(_REWRITES, "<rewrites>").functions}
    assert list(fns) == ["inc", "outer", "apply", "user", "addK", "twice"]
    assert body_str(fns["outer"].body) == (
        "var $t0 = undefined;\nif ((n > 0)) {\n  $t0 = n;\n} else {\n"
        "  $t0 = (0 - n);\n}\nvar k = $t0;\nreturn twice(k);")
    # the lifted functions take the captured local first
    assert (fns["addK"].params, fns["addK"].captures) == (["k", "y"], ["k"])
    assert (fns["twice"].params, fns["twice"].captures) == (["k", "z"], ["k"])
    assert body_str(fns["addK"].body) == "return (y + k);"
    assert body_str(fns["twice"].body) == "return addK(addK(z));"
    # every reference to a nested function, callee or not, becomes a
    # closure carrying the captures; a global function becomes one only as
    # a value: `inc` as an argument is a closure, `inc` as a callee is not
    assert _closures(fns["outer"].body) == [("twice", ["k"])]
    assert _closures(fns["twice"].body) == [("addK", ["k"]), ("addK", ["k"])]
    assert _closures(fns["user"].body) == [("inc", [])]
    ret = fns["user"].body
    assert isinstance(ret, BReturn) and isinstance(ret.expr.callee, EVar)
    assert isinstance(ret.expr.args[1].callee, EVar)
    cast = ret.expr.args[1].args[0]
    assert isinstance(cast, ECast) and cast.rtype == R_NUM
    assert expr_str(ret.expr) == "apply(inc, inc(<number> m))"


def test_captured_variable_reassigned_rejected():
    with pytest.raises(ParseError) as ei:
        parse_text("""
/*@ (n: number) => number */
function f(n) {
  var k = 1;
  k = 2;
  function g(y) { return y + k; }
  return g(n);
}
""", "<t>")
    assert str(ei.value) == ("<t>:6:3: captured variable 'k' is reassigned"
                             " in the enclosing function; closures capture"
                             " values")


def test_first_bad_cast_reported():
    """Casts resolve in source order, so the first unknown name wins."""
    with pytest.raises(ResolveError) as ei:
        parse_text("""
/*@ (n: number) => number */
function f(n) {
  if (g(<Foo> n)) { return h(<Bar> n); }
  return n;
}
""", "<t>")
    assert str(ei.value) == "<t>:4:9: unknown type name 'Foo'"


@pytest.mark.parametrize("text,where,name", [
    ("/*@ (x: number, x: number) => number */\n"
     "function f(x, x) { return x; }\n", "2:15", "x"),
    ("class C {\n  m(a: number, a: number) : number { return a; }\n}\n",
     "2:16", "a"),
    ("class C {\n  immutable a : number;\n"
     "  constructor(a: number, a: number) { this.a = a; }\n}\n", "3:26", "a"),
    ("/*@ ghost g :: (a: nat, a: nat) => boolean */\n", "1:1", "a"),
    ("/*@ (n: number) => number */\nfunction f(n) {\n"
     "  function g(y, y) { return y + n; }\n  return n;\n}\n", "3:17", "y"),
], ids=["function", "method", "constructor", "ghost", "nested"])
def test_duplicate_parameter_rejected(text, where, name):
    """Parameter names are distinct in every kind of declaration; the
    error points at the repetition."""
    with pytest.raises(ResolveError) as ei:
        parse_text(text, "<t>")
    assert str(ei.value) == f"<t>:{where}: duplicate parameter '{name}'"
