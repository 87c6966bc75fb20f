"""Vocabulary-level properties: trivial refinement, free variables,
substitution, and source round-tripping."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import CORPUS, ROOT, parse, parse_text

from rsccore.syntax import (
    BArr, BClass, BPrim, B_BOOL, B_NUM, PAtom, P_TRUE, RBase, RExists,
    TBuiltin, TConst, TUF, TValueVar, TVar, body_str, clone_tree,
    free_type_vars, p_and, p_eq, pred_str, trivially_refine, type_str,
    type_subst, walk_tree,
)


def test_trivially_refine_number():
    t = trivially_refine(B_NUM)
    assert t == RBase(B_NUM, P_TRUE)
    assert type_str(t) == "number"


def test_trivially_refine_bool_and_class():
    assert trivially_refine(B_BOOL) == RBase(B_BOOL, P_TRUE)
    c = trivially_refine(BClass("C"))
    assert type_str(c) == "C"


def test_free_type_vars_open_term():
    t = RBase(B_NUM, PAtom(TBuiltin("lt", (TValueVar(),
                                           TUF("len", (TVar("a"),))))))
    assert free_type_vars(t) == {"a"}


def test_free_type_vars_existential_binder_hidden():
    body = RBase(B_NUM, p_eq(TValueVar(), TVar("x")))
    t = RExists("x", trivially_refine(B_NUM), body)
    assert free_type_vars(t) == set()


def test_free_type_vars_trivial():
    assert free_type_vars(trivially_refine(B_NUM)) == set()


@given(st.sampled_from(["a", "b", "n", "zz"]), st.integers(-5, 5))
def test_subst_noop_when_not_free(name, k):
    t = RBase(B_NUM, PAtom(TBuiltin("lt", (TValueVar(), TVar("other")))))
    assert name not in free_type_vars(t)
    assert type_subst(t, {name: TConst(k)}) == t


def test_subst_capture_avoidance_under_exists():
    # substituting x under a binder also named x must rename the binder
    inner = RBase(B_NUM, p_eq(TValueVar(), TVar("x")))
    t = RExists("x", trivially_refine(B_NUM), inner)
    s = type_subst(t, {"x": TVar("y")})
    assert s == t  # x is bound: nothing to do
    # now a type with x free under a binder z, substituting z's name in
    t2 = RExists("z", trivially_refine(B_NUM),
                 RBase(B_NUM, p_eq(TValueVar(), TVar("x"))))
    s2 = type_subst(t2, {"x": TVar("z")})
    assert isinstance(s2, RExists)
    assert s2.name != "z"  # binder renamed to avoid capturing the new z
    assert "z" in {v for v in free_type_vars(s2)}


# cast_flags is excluded here: its bodies mention class names that only
# resolve with the whole file in scope
ROUND_TRIP_FILES = [
    "head.rsc", "ssa_reduce.rsc", "typeof.rsc", "field.rsc",
    "field_ghost.rsc", "bad_undefined.rsc", "overload_reduce.rsc",
]


@pytest.mark.parametrize("name", ROUND_TRIP_FILES)
def test_round_trip_bodies(name):
    """Printing a parsed body and re-parsing it reproduces the same
    printed body (identity up to node ids and whitespace)."""
    p = parse(CORPUS / name)
    for f in p.functions:
        if f.body is None or f.captures:
            continue
        printed = body_str(f.body)
        wrapped = "function %s(%s) { %s }" % (f.name, ", ".join(f.params),
                                              printed)
        p2 = parse_text(wrapped)
        f2 = next(g for g in p2.functions if g.name == f.name)
        assert body_str(f2.body) == printed


def test_round_trip_closure_fixpoint():
    """Files with nested functions reach a printed fixpoint after one
    parse (captures print as plain references)."""
    p = parse(CORPUS / "minindex.rsc")
    fn = next(f for f in p.functions if f.name == "minIndex")
    s1 = body_str(fn.body)
    assert "step" in s1


def test_pred_printing_reparses():
    from rsccore.frontend.types_parser import PredParser
    from rsccore.frontend.lexer import TokenStream, lex
    p = p_and(PAtom(TBuiltin("le", (TConst(0), TValueVar()))),
              PAtom(TBuiltin("lt", (TValueVar(), TUF("len", (TVar("a"),))))))
    txt = pred_str(p)
    p2 = PredParser(TokenStream(lex(txt))).parse_pred()
    assert pred_str(p2) == txt


def test_round_trip_method_bodies():
    p = parse(CORPUS / "field_ghost.rsc")
    cls = p.classes[0]
    for m in cls.methods:
        if m.is_ctor:
            continue
        printed = body_str(m.body)
        params = ", ".join(f"{n}:{type_str(t)}" for n, t in m.params)
        wrapped = ("type ArrayN<T,n> = {v:T[] | len(v) = n}\n"
                   "type grid<w,h> = ArrayN<number, (w+2)*(h+2)>\n"
                   "type okW = natLE<this.w>\n"
                   "type okH = natLE<this.h>\n"
                   "/*@ ghost idxBound :: (x: nat, y: nat, w: {v:pos | x <= v},"
                   " h: {v:pos | y <= v}) => {v:boolean | true} */\n"
                   "class Field {\n"
                   "  immutable w : pos;\n  immutable h : pos;\n"
                   "  dens : grid<this.w, this.h>;\n"
                   "  constructor(w: pos, h: pos, d: grid<w,h>)"
                   " { this.h = h; this.w = w; this.dens = d; }\n"
                   f"  {m.name}({params}) : {type_str(m.ret)} {{\n"
                   f"{printed}\n  }}\n}}\n")
        p2 = parse_text(wrapped)
        m2 = next(x for x in p2.classes[0].methods if x.name == m.name)
        assert body_str(m2.body) == printed


def test_only_syntax_reads_dataclass_fields():
    """The rule for what counts as a subtree has one owner: no module but
    syntax.py walks a node's dataclass fields itself."""
    import ast
    src = ROOT / "src" / "rsccore"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path == src / "syntax.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "dataclasses" and \
                    any(a.name == "fields" for a in node.names):
                offenders.append(path.relative_to(src))
            if isinstance(node, ast.Attribute) and node.attr == "fields" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "dataclasses":
                offenders.append(path.relative_to(src))
    assert offenders == []


def test_only_syntax_copies_a_node():
    """A node is copied by `syntax.with_field`, and a machine rebuilds a
    stepped node by the name of the child's field: no module copies with
    `copy` or `dataclasses.replace`, and no step is wrapped by a lambda."""
    import ast
    src = ROOT / "src" / "rsccore"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(src)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import) and \
                    any(a.name == "copy" for a in node.names):
                offenders.append(where)
            if isinstance(node, ast.ImportFrom) and \
                    (node.module == "copy" or node.module == "dataclasses"
                     and any(a.name == "replace" for a in node.names)):
                offenders.append(where)
            if isinstance(node, ast.Attribute) and node.attr == "replace" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "dataclasses":
                offenders.append(where)
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("_wrap", "_step_children") and \
                    any(isinstance(a, ast.Lambda) for a in
                        [*node.args, *(k.value for k in node.keywords)]):
                offenders.append(where)
    assert offenders == []


def _undefined_globals(text: str, fname: str) -> list:
    """The names module `text` reads as globals, in any scope, that it
    neither defines nor imports and that are not builtins."""
    import builtins
    import symtable
    top = symtable.symtable(text, fname, "exec")
    known = set(dir(builtins)) | {
        s.get_name() for s in top.get_symbols()
        if s.is_assigned() or s.is_imported() or s.is_namespace()}
    out = []
    tables = [top]
    while tables:
        t = tables.pop()
        tables.extend(t.get_children())
        for s in t.get_symbols():
            n = s.get_name()
            if s.is_referenced() and (s.is_global() or t is top) and \
                    n not in known and not n.startswith("__"):
                out.append(f"{fname}:{t.get_name()}:{n}")
    return out


def test_no_module_reads_an_undefined_global():
    """With no linter installed, a name a function reads but no module
    binds shows only when that line runs: scan every module for one."""
    assert _undefined_globals(
        "from x import a\nb = 1\ndef f(c):\n    return a + b + c + d + len\n"
        "class K:\n    def m(self):\n        return e\n", "t.py") == \
        ["t.py:m:e", "t.py:f:d"]
    src = ROOT / "src" / "rsccore"
    found = []
    for path in sorted(src.rglob("*.py")):
        found += _undefined_globals(path.read_text(),
                                    str(path.relative_to(src)))
    assert found == []


def _unread_imports(text: str, fname: str) -> list:
    """The names module `text` imports and never reads.  A name listed in
    `__all__` or spelled in a string annotation counts as read."""
    import ast
    tree = ast.parse(text)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for c in ast.walk(ann) if ann is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    read |= {n.id for n in ast.walk(ast.parse(
                        c.value, mode="eval")) if isinstance(n, ast.Name)}
    return [f"{fname}:{line}:{name}" for name, line in imported.items()
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    """With no linter installed, an import left behind by a deleted use
    shows nowhere: scan every module for one."""
    assert _unread_imports(
        "from __future__ import annotations\nimport os.path\n"
        "from x import a, b as c, d, e\n__all__ = ['d']\n"
        "def f(y: 'e') -> None:\n    return a\n", "t.py") == ["t.py:2:os",
                                                            "t.py:3:c"]
    src = ROOT / "src" / "rsccore"
    found = []
    for path in sorted(src.rglob("*.py")):
        found += _unread_imports(path.read_text(),
                                 str(path.relative_to(src)))
    assert found == []


def test_clone_tree_fresh_ids_in_preorder():
    p = parse(CORPUS / "minindex.rsc")
    body = p.functions[0].body
    before = [(type(n), n.nid) for n in walk_tree(body)]
    copy = clone_tree(body)
    nodes = list(walk_tree(copy))
    assert [type(n) for n in nodes] == [t for t, _ in before]
    assert body_str(copy) == body_str(body)
    # fresh ids, allocated in pre-order, and the original is untouched
    ids = [n.nid for n in nodes]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert ids[0] > max(nid for _, nid in before)
    assert [(type(n), n.nid) for n in walk_tree(body)] == before
    assert not {id(n) for n in nodes} & {id(n) for n in walk_tree(body)}


_LOGIC_CLASSES = ["TField", "TUF", "TBuiltin", "PAnd", "PNot", "RExists",
                  "RFun", "RBase", "BArr"]

# rebuilds kept outside syntax.py: (module, class, enclosing function)
_KEPT_REBUILDS = {
    # the constructor's call signature, made from its MethodDecl with the
    # class as the return type and no type variables
    ("checker/core.py", "RFun", "_check_new"),
    # these two rebuild conjunctions with p_and, which drops the `true`
    # they leave behind, where map_pred keeps every conjunct
    ("checker/ctor.py", "PNot", "_strip_structural"),
    # a negation flips the polarity of the refinement variables under it
    ("logic.py", "PNot", "drop_kvars"),
}


def _logic_rebuilds(text: str, fname: str) -> list:
    """The calls in module `text` that rebuild a logic value of one of
    `_LOGIC_CLASSES` from the same-named fields of another value: for one
    variable `o`, two of the call's arguments (the one argument of a
    one-field class) each read `o.f` for the field `f` they fill.
    Returned as (fname, class, enclosing function, line)."""
    import ast
    import dataclasses
    import rsccore.syntax as syntax
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _LOGIC_CLASSES:
            names = [f.name for f in
                     dataclasses.fields(getattr(syntax, node.func.id))]
            slots = list(zip(names, node.args)) + \
                [(k.arg, k.value) for k in node.keywords]
            filled: dict = {}
            for slot, arg in slots:
                for a in ast.walk(arg):
                    if isinstance(a, ast.Attribute) and a.attr == slot and \
                            isinstance(a.value, ast.Name):
                        filled.setdefault(a.value.id, set()).add(slot)
            if any(len(s) >= min(2, len(names)) for s in filled.values()):
                out.append((fname, node.func.id, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(text), None)
    return out


def test_only_syntax_rebuilds_a_logic_value():
    """How a term, a predicate or a type breaks into parts has one owner:
    outside syntax.py a walker maps them with `map_term`, `map_pred`,
    `map_type` or `map_core`, or copies one field with `with_field`."""
    assert [r[:3] for r in _logic_rebuilds(
        "def f(t, u, b):\n"
        "    a = TField(g(t.base), t.fname)\n"
        "    c = PNot(h(u.pred))\n"
        "    d = RBase(b.base, t.pred)\n"
        "    return RExists(t.name, u, k(t.body))\n", "t.py")] == [
        ("t.py", "TField", "f"), ("t.py", "PNot", "f"),
        ("t.py", "RExists", "f")]
    src = ROOT / "src" / "rsccore"
    found = []
    for path in sorted(src.rglob("*.py")):
        if path != src / "syntax.py":
            found += _logic_rebuilds(path.read_text(),
                                     str(path.relative_to(src)))
    assert [r for r in found if r[:3] not in _KEPT_REBUILDS] == []
    assert {r[:3] for r in found} == _KEPT_REBUILDS
