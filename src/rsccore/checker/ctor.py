"""Constructor rewriting: field writes on the object under construction
become locals, and every return point becomes a single atomic call that
establishes the class invariants.

The rewritten body is what the checker verifies; runtime semantics keep
the original constructor.  Restrictions (no reads of this-fields, no
method calls on this, no this-escape) are enforced here."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..logic import ClassTable
from ..ssa import CTOR_INIT
from ..syntax import (
    BArr, BClass, BIte, BPrim, BReturn, BSeq, Body, ClassDecl, EConst,
    EFieldRead, EFuncCall, EMethodCall, EThis, EVar, Expr, MethodDecl,
    P_TRUE, PAnd, PAtom, PKvar, PNot, Pred, RBase, RExists, RFun, RType,
    SExprStmt, SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile, SAssign,
    Stmt, TBuiltin, TConst, TField, TThis, TUF, TVar, Term, UNDEFINED,
    next_node_id, p_and, walk_tree,
)


class CtorError(Exception):
    def __init__(self, msg: str, span):
        super().__init__(msg)
        self.msg = msg
        self.span = span


@dataclass
class CtorInfo:
    cname: str
    init_params: list  # [(local name, field decl)]
    init_sig: RFun
    witnesses: dict  # field name -> constructor parameter name


def _field_param(f: str) -> str:
    return f"_{f}"


def _paths_to_params(t, fields: list):
    """Replace this.f paths by the corresponding local parameter name in a
    type or predicate."""
    # handled via a term-level rewrite: TField(TThis, f) -> TVar(_f)
    def rw_term(u: Term) -> Term:
        if isinstance(u, TField) and isinstance(u.base, TThis):
            if u.fname in fields:
                return TVar(_field_param(u.fname))
            return u
        if isinstance(u, TField):
            return TField(rw_term(u.base), u.fname)
        if isinstance(u, TBuiltin):
            return TBuiltin(u.op, tuple(rw_term(a) for a in u.args))
        if isinstance(u, TUF):
            return TUF(u.fname, tuple(rw_term(a) for a in u.args))
        return u

    def rw_pred(p: Pred) -> Pred:
        if isinstance(p, PAnd):
            return PAnd(tuple(rw_pred(c) for c in p.conjuncts))
        if isinstance(p, PNot):
            return PNot(rw_pred(p.pred))
        if isinstance(p, PKvar):
            return p
        return PAtom(rw_term(p.term))

    def rw_type(ty: RType) -> RType:
        if isinstance(ty, RBase):
            b = ty.base
            if isinstance(b, BArr):
                b = BArr(rw_type(b.elem), b.mut)
            return RBase(b, rw_pred(ty.pred))
        if isinstance(ty, RExists):
            return RExists(ty.name, rw_type(ty.bound), rw_type(ty.body))
        return ty

    if isinstance(t, (RBase,)) or hasattr(t, "body"):
        return rw_type(t)
    return rw_pred(t)


def ctor_init_signature(classes: ClassTable, cname: str) -> CtorInfo:
    """The signature of the atomic initializer: one parameter per field
    (inherited first), typed at the declared field type with this-rooted
    paths redirected to the sibling parameters; the declared class
    invariant becomes its precondition."""
    fields = classes.fields_of(RBase(BClass(cname), P_TRUE), TThis(),
                               strengthen_with_refinement=False)
    fnames = [n for _, n, _ in fields]
    params = []
    for mut, name, ft in fields:
        params.append((_field_param(name), _paths_to_params(ft, fnames)))
    inv = classes.declared_inv(cname, TThis())
    precond = _paths_to_params(inv, fnames) if inv != P_TRUE else P_TRUE
    # `this` does not exist yet at initialization time; invariant conjuncts
    # about raw inclusion hold by construction
    precond = _strip_structural(precond, classes, cname)
    sig = RFun(tuple(params), RBase(BPrim("undefined"), P_TRUE), (),
               precond)
    return CtorInfo(cname, [(p, f) for (p, _), f in
                            zip(params, [f for _, _, f in fields])],
                    sig, {})


def _strip_structural(p: Pred, classes: ClassTable, cname: str) -> Pred:
    """instanceof(this, D) facts hold by construction inside the
    constructor; replace them by true in the initializer's obligation."""
    if isinstance(p, PAnd):
        return p_and(*[_strip_structural(c, classes, cname)
                       for c in p.conjuncts])
    if isinstance(p, PNot):
        return PNot(_strip_structural(p.pred, classes, cname))
    if isinstance(p, PAtom) and isinstance(p.term, TUF) and \
            p.term.fname == "instanceof":
        t, c = p.term.args
        if isinstance(t, TThis) and isinstance(c, TConst) and \
                classes.is_subclass(cname, str(c.value)):
            return P_TRUE
    return p


def _check_expr_restrictions(e: Expr, span):
    """Inside a constructor: no reads of this-fields, no method calls on
    this, no passing this out."""
    if isinstance(e, EFieldRead) and isinstance(e.obj, EThis):
        raise CtorError("constructor reads a field of the object under"
                        " construction", e.span)
    if isinstance(e, EMethodCall) and isinstance(e.obj, EThis):
        raise CtorError("constructor invokes a method on the object under"
                        " construction", e.span)
    if any(isinstance(n, EThis) for n in walk_tree(e)):
        raise CtorError("constructor leaks `this` before initialization"
                        " completes", span)


def ctor_rewrite(cls: ClassDecl, classes: ClassTable) -> MethodDecl:
    """Produce the checking variant of the constructor."""
    ctor = None
    for m in cls.methods:
        if m.is_ctor:
            ctor = m
    fields = classes.fields_of(RBase(BClass(cls.name), P_TRUE), TThis(),
                               strengthen_with_refinement=False)
    fnames = [n for _, n, _ in fields]
    if ctor is None:
        if fnames:
            raise CtorError(
                f"class {cls.name} has fields but no constructor",
                cls.span)
        body = BReturn(EFuncCall(EVar(CTOR_INIT, nid=next_node_id()), [],
                                 nid=next_node_id()),
                       nid=next_node_id(), span=cls.span)
        return MethodDecl("constructor", [], P_TRUE,
                          RBase(BPrim("undefined"), P_TRUE), body, (),
                          cls.span, is_ctor=True), {}

    assigned: dict[str, Optional[str]] = {}
    new_body, _ = _rewrite_body(ctor.body, fnames, assigned, cls.span)
    missing = [f for f in fnames if f not in assigned]
    if missing:
        raise CtorError(
            f"constructor of {cls.name} does not initialize field(s):"
            f" {', '.join(missing)}", ctor.span)
    # a witness is the parameter's value at the call: one the body
    # reassigns witnesses nothing
    reassigned = {n.name for n in walk_tree(ctor.body)
                  if isinstance(n, SAssign)}
    witnesses = {f: p for f, p in assigned.items()
                 if p is not None and p not in reassigned}
    return MethodDecl("constructor", list(ctor.params), ctor.precond,
                      ctor.ret, new_body, ctor.tyvars, ctor.span,
                      is_ctor=True), witnesses


def _rewrite_body(b: Body, fnames: list, assigned: dict, cspan):
    if isinstance(b, BReturn):
        if not (isinstance(b.expr, EThis)):
            raise CtorError("constructors return the constructed object",
                            b.span)
        call = EFuncCall(
            EVar(CTOR_INIT, span=b.span, nid=next_node_id()),
            [EVar(_field_param(f), span=b.span, nid=next_node_id())
             for f in fnames],
            span=b.span, nid=next_node_id())
        return BReturn(call, span=b.span, nid=next_node_id()), assigned
    if isinstance(b, BSeq):
        stmt = _rewrite_stmt(b.stmt, fnames, assigned, cspan)
        rest, _ = _rewrite_body(b.rest, fnames, assigned, cspan)
        return BSeq(stmt, rest, span=b.span, nid=next_node_id()), assigned
    if isinstance(b, BIte):
        _check_expr_restrictions(b.cond, b.span)
        a1 = dict(assigned)
        a2 = dict(assigned)
        t, _ = _rewrite_body(b.then_b, fnames, a1, cspan)
        e, _ = _rewrite_body(b.else_b, fnames, a2, cspan)
        for f in fnames:
            if (f in a1) != (f in a2):
                raise CtorError(
                    f"field {f!r} initialized on only one branch", b.span)
            if f in a1:
                assigned[f] = a1[f] if a1.get(f) == a2.get(f) else None
        return BIte(b.cond, t, e, span=b.span, nid=next_node_id()), assigned
    raise TypeError(b)


def _fields_written(s: Stmt) -> set:
    """The fields of `this` that statement `s` writes."""
    return {n.fname for n in walk_tree(s)
            if isinstance(n, SFieldAssign) and isinstance(n.obj, EThis)}


def _rewrite_stmt(s: Stmt, fnames: list, assigned: dict, cspan) -> Stmt:
    if isinstance(s, SSeq):
        first = _rewrite_stmt(s.first, fnames, assigned, cspan)
        second = _rewrite_stmt(s.second, fnames, assigned, cspan)
        return SSeq(first, second, span=s.span, nid=next_node_id())
    if isinstance(s, SFieldAssign) and isinstance(s.obj, EThis):
        if s.fname not in fnames:
            raise CtorError(f"unknown field {s.fname!r}", s.span)
        _check_expr_restrictions(s.rhs, s.span)
        witness = s.rhs.name if isinstance(s.rhs, EVar) else None
        first_write = s.fname not in assigned
        assigned[s.fname] = witness if first_write else None
        if first_write:
            return SVarDecl(_field_param(s.fname), s.rhs, span=s.span,
                            nid=next_node_id())
        return SAssign(_field_param(s.fname), s.rhs, span=s.span,
                       nid=next_node_id())
    if isinstance(s, (SVarDecl, SAssign)):
        _check_expr_restrictions(s.expr, s.span)
        return s
    if isinstance(s, SExprStmt):
        _check_expr_restrictions(s.expr, s.span)
        return s
    if isinstance(s, SFieldAssign):
        _check_expr_restrictions(s.obj, s.span)
        _check_expr_restrictions(s.rhs, s.span)
        return s
    if isinstance(s, SIte):
        _check_expr_restrictions(s.cond, s.span)
        wrote1 = _fields_written(s.then_s)
        wrote2 = _fields_written(s.else_s)
        for f in wrote1.symmetric_difference(wrote2):
            if f not in assigned:
                raise CtorError(
                    f"field {f!r} initialized on only one branch", s.span)
        # fields first initialized inside the conditional get a local
        # declared before it, so the join keeps them live (their
        # constructor-parameter witness is branch-dependent: none)
        new = [f for f in fnames
               if f in wrote1 and f in wrote2 and f not in assigned]
        for f in new:
            assigned[f] = None
        a1 = dict(assigned)
        a2 = dict(assigned)
        t = _rewrite_stmt(s.then_s, fnames, a1, cspan)
        e = _rewrite_stmt(s.else_s, fnames, a2, cspan)
        for f in assigned:
            assigned[f] = a1[f] if a1[f] == a2[f] else None
        out = SIte(s.cond, t, e, span=s.span, nid=next_node_id())
        for f in reversed(new):
            decl = SVarDecl(_field_param(f),
                            EConst(UNDEFINED, span=s.span,
                                   nid=next_node_id()),
                            span=s.span, nid=next_node_id())
            out = SSeq(decl, out, span=s.span, nid=next_node_id())
        return out
    if isinstance(s, SWhile):
        for n in walk_tree(s.body):
            if isinstance(n, SFieldAssign) and isinstance(n.obj, EThis):
                raise CtorError("field initialization inside a loop is not"
                                " supported", n.span)
        _check_expr_restrictions(s.cond, s.span)
        return s
    if isinstance(s, SSkip):
        return s
    raise TypeError(s)
