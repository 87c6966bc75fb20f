"""Surface-to-core lowering: ternary hoisting, early-return normalization,
nested-function lifting, and global-function-reference closure wrapping."""

from __future__ import annotations

from ..syntax import (
    BIte, BReturn, BSeq, Body, EClosure, EConst, EFuncCall, EThis, EVar,
    Expr, SAssign, SExprStmt, SFieldAssign, SIte, SSeq, SSkip, SVarDecl,
    SWhile, SourceSpan, Stmt, UNDEFINED, clone_tree, next_node_id,
    replace_in_tree, seq_stmts, walk_stmts, walk_tree,
)
from .parser import (
    ETernary, NestedFunc, ParseError, RawFunc, RawParam, SReturn, fresh_tmp,
)


# ---------------------------------------------------------------------------
# Ternary hoisting


def hoist_stmts(stmts: list) -> list:
    out: list = []
    for s in stmts:
        out.extend(hoist_stmt(s))
    return out


def hoist_stmt(s) -> list:
    if isinstance(s, SVarDecl):
        pre, e = _hoist_expr(s.expr)
        s.expr = e
        return pre + [s]
    if isinstance(s, SAssign):
        pre, e = _hoist_expr(s.expr)
        s.expr = e
        return pre + [s]
    if isinstance(s, SFieldAssign):
        pre1, obj = _hoist_expr(s.obj)
        pre2, rhs = _hoist_expr(s.rhs)
        s.obj, s.rhs = obj, rhs
        return pre1 + pre2 + [s]
    if isinstance(s, SExprStmt):
        pre, e = _hoist_expr(s.expr)
        s.expr = e
        return pre + [s]
    if isinstance(s, SReturn):
        if s.expr is None:
            return [s]
        pre, e = _hoist_expr(s.expr)
        s.expr = e
        return pre + [s]
    if isinstance(s, SIte):
        pre, c = _hoist_expr(s.cond)
        s.cond = c
        s.then_s = seq_stmts(hoist_stmt_tree(s.then_s), s.span)
        s.else_s = seq_stmts(hoist_stmt_tree(s.else_s), s.span)
        return pre + [s]
    if isinstance(s, SWhile):
        if _contains_ternary(s.cond):
            raise ParseError("conditional expressions in loop conditions are"
                             " not supported", s.span)
        s.body = seq_stmts(hoist_stmt_tree(s.body), s.span)
        return [s]
    if isinstance(s, SSeq):
        return hoist_stmt_tree(s)
    if isinstance(s, (SSkip, NestedFunc)):
        return [s]
    raise TypeError(s)


def hoist_stmt_tree(s: Stmt) -> list:
    return hoist_stmts(_flatten(s))


def _flatten(s: Stmt) -> list:
    if isinstance(s, SSeq):
        return _flatten(s.first) + _flatten(s.second)
    if isinstance(s, SSkip):
        return []
    return [s]


def _contains_ternary(e: Expr) -> bool:
    return any(isinstance(n, ETernary) for n in walk_tree(e))


def _hoist_expr(e: Expr) -> tuple[list, Expr]:
    """Pull conditional expressions out of e, returning prelude statements
    plus the rewritten expression."""
    if isinstance(e, ETernary):
        pre_c, cond = _hoist_expr(e.cond)
        tmp = fresh_tmp()
        pre_t, te = _hoist_expr(e.then_e)
        pre_e, ee = _hoist_expr(e.else_e)
        decl = SVarDecl(tmp, EConst(UNDEFINED, span=e.span,
                                    nid=next_node_id()),
                        span=e.span, nid=next_node_id())
        then_s = seq_stmts(pre_t + [SAssign(tmp, te, span=e.span,
                                            nid=next_node_id())], e.span)
        else_s = seq_stmts(pre_e + [SAssign(tmp, ee, span=e.span,
                                            nid=next_node_id())], e.span)
        ite = SIte(cond, then_s, else_s, span=e.span, nid=next_node_id())
        return pre_c + [decl, ite], EVar(tmp, span=e.span, nid=next_node_id())
    pre: list = []

    def hoist(node, field, c):
        if not isinstance(c, ETernary):
            return None
        p, v = _hoist_expr(c)
        pre.extend(p)
        return v

    replace_in_tree(e, hoist)
    return pre, e


# ---------------------------------------------------------------------------
# JS-style var scoping: a repeated `var x` for a live x is an assignment


def merge_redeclarations(stmts: list, declared: set) -> list:
    out: list = []
    for s in stmts:
        if isinstance(s, SVarDecl):
            if s.name in declared:
                out.append(SAssign(s.name, s.expr, span=s.span, nid=s.nid))
            else:
                declared.add(s.name)
                out.append(s)
        elif isinstance(s, SIte):
            s.then_s = seq_stmts(
                merge_redeclarations(_flatten(s.then_s), set(declared)),
                s.span)
            s.else_s = seq_stmts(
                merge_redeclarations(_flatten(s.else_s), set(declared)),
                s.span)
            out.append(s)
        elif isinstance(s, SWhile):
            s.body = seq_stmts(
                merge_redeclarations(_flatten(s.body), set(declared)), s.span)
            out.append(s)
        elif isinstance(s, SSeq):
            out.extend(merge_redeclarations(_flatten(s), declared))
        else:
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# Early-return normalization


def _contains_return(s) -> bool:
    return any(isinstance(n, SReturn) for n in walk_stmts(s))


def to_body(stmts: list, span: SourceSpan, result: str = "undefined") -> Body:
    """Normalize a statement list into the core body form, turning early
    returns into conditionals whose branches both conclude the body."""
    if not stmts:
        if result == "this":
            return BReturn(EThis(span=span, nid=next_node_id()), span=span,
                           nid=next_node_id())
        return BReturn(EConst(UNDEFINED, span=span, nid=next_node_id()),
                       span=span, nid=next_node_id())
    s, rest = stmts[0], stmts[1:]
    if isinstance(s, SReturn):
        if result == "this":
            if s.expr is not None and not isinstance(s.expr, EThis):
                raise ParseError("constructors may only return this", s.span)
            return BReturn(EThis(span=s.span, nid=next_node_id()),
                           span=s.span, nid=next_node_id())
        expr = s.expr if s.expr is not None else \
            EConst(UNDEFINED, span=s.span, nid=next_node_id())
        return BReturn(expr, span=s.span, nid=next_node_id())
    if isinstance(s, SIte) and (_contains_return(s.then_s) or
                                _contains_return(s.else_s)):
        then_list = _flatten(s.then_s) + rest
        else_list = _flatten(s.else_s) + clone_tree(rest)
        return BIte(s.cond, to_body(then_list, s.span, result),
                    to_body(else_list, s.span, result),
                    span=s.span, nid=s.nid)
    if isinstance(s, SWhile) and _contains_return(s.body):
        raise ParseError("return inside a loop is not supported; restructure"
                         " with an explicit exit variable", s.span)
    return BSeq(s, to_body(rest, span, result), span=s.span,
                nid=next_node_id())


# ---------------------------------------------------------------------------
# Nested function lifting


def _expr_free_vars(e, bound: set) -> set:
    return {n.name for n in walk_tree(e)
            if isinstance(n, EVar) and n.name not in bound}


def _stmts_free_vars(stmts: list, bound: set) -> set:
    """Free variable references in a raw statement list (declaration order
    respected linearly; branch-local declarations treated flow-insensitively,
    which over-approximates captures)."""
    out: set = set()
    bound = set(bound)
    for s in stmts:
        if isinstance(s, NestedFunc):
            inner_bound = bound | {p.name for p in s.fn.params} | {s.fn.name}
            out |= _stmts_free_vars(s.fn.stmts, inner_bound)
            bound.add(s.fn.name)
            continue
        if isinstance(s, SReturn):
            if s.expr is not None:
                out |= _expr_free_vars(s.expr, bound)
            continue
        if isinstance(s, SVarDecl):
            out |= _expr_free_vars(s.expr, bound)
            bound.add(s.name)
            continue
        if isinstance(s, SAssign):
            out |= _expr_free_vars(s.expr, bound)
            if s.name not in bound:
                out.add(s.name)
            continue
        if isinstance(s, SFieldAssign):
            out |= _expr_free_vars(s.obj, bound) | _expr_free_vars(s.rhs, bound)
            continue
        if isinstance(s, SExprStmt):
            out |= _expr_free_vars(s.expr, bound)
            continue
        if isinstance(s, SIte):
            out |= _expr_free_vars(s.cond, bound)
            out |= _stmts_free_vars(_flatten(s.then_s), bound)
            out |= _stmts_free_vars(_flatten(s.else_s), bound)
            continue
        if isinstance(s, SWhile):
            out |= _expr_free_vars(s.cond, bound)
            out |= _stmts_free_vars(_flatten(s.body), bound)
            continue
        if isinstance(s, (SSkip, SSeq)):
            if isinstance(s, SSeq):
                out |= _stmts_free_vars(_flatten(s), bound)
            continue
        raise TypeError(s)
    return out


def lift_nested(fn: RawFunc, globals_: set, out_funcs: list):
    """Lift nested function declarations out of fn.stmts (in place),
    appending the lifted RawFuncs (annotated with captures) to out_funcs.
    References to a nested function (hoisted, so position-independent)
    become closure constructors carrying the captured locals."""
    declared = {p.name for p in fn.params}
    assigned: set = set()
    for s in fn.stmts:
        if isinstance(s, (NestedFunc, SReturn)):
            continue
        for n in walk_stmts(s):
            if isinstance(n, SVarDecl):
                declared.add(n.name)
            if isinstance(n, SAssign):
                assigned.add(n.name)

    nested = [s for s in fn.stmts if isinstance(s, NestedFunc)]
    fn.stmts = [s for s in fn.stmts if not isinstance(s, NestedFunc)]
    for marker in nested:
        inner = marker.fn
        if inner.name in globals_:
            raise ParseError(
                f"nested function {inner.name!r} shadows a global",
                marker.span)
        inner_bound = {p.name for p in inner.params} | {inner.name}
        free = _stmts_free_vars(inner.stmts,
                                inner_bound | (globals_ - declared))
        captures = sorted(n for n in free if n in declared)
        for c in captures:
            if c in assigned:
                raise ParseError(
                    f"captured variable {c!r} is reassigned in the enclosing"
                    " function; closures capture values", marker.span)
        inner.params = [RawParam(c, None, marker.span) for c in captures] + \
            inner.params
        inner.captures = captures  # type: ignore[attr-defined]
        globals_.add(inner.name)

        def mk(node, field, var, fname=inner.name, caps=tuple(captures)):
            if not (isinstance(var, EVar) and var.name == fname):
                return None
            return EClosure(fname,
                            [EVar(c, span=var.span, nid=next_node_id())
                             for c in caps],
                            span=var.span, nid=next_node_id())

        for t in fn.stmts:
            replace_in_tree(t, mk)
        for u in inner.stmts:
            if not isinstance(u, NestedFunc):
                replace_in_tree(u, mk)
        for other in nested:
            if other is not marker:
                for u in other.fn.stmts:
                    if not isinstance(u, NestedFunc):
                        replace_in_tree(u, mk)
        lift_nested(inner, globals_, out_funcs)
        out_funcs.append(inner)


def wrap_global_fn_refs(stmts: list, fn_names: set, params=()):
    """Rewrite references to top-level functions in value position into
    closure constructors (calls keep the bare name).  A name the function
    binds itself, as a parameter or a `var`, means that binding."""
    local = set(params) | {n.name for s in stmts for n in walk_stmts(s)
                           if isinstance(n, SVarDecl)}
    globals_ = fn_names - local

    def wrap(node, field, v):
        if isinstance(v, EVar) and v.name in globals_ and \
                not (isinstance(node, EFuncCall) and field == "callee"):
            return EClosure(v.name, [], span=v.span, nid=next_node_id())
        return None

    for s in stmts:
        replace_in_tree(s, wrap)
