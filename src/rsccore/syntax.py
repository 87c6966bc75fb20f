"""Abstract syntax shared by every stage of the pipeline.

Three layers live here:

* the imperative source language (statements, bodies, class/function decls),
* its functional SSA target (let/letif/letwhile contexts over expressions),
* the logic vocabulary (terms, predicates, refinement types) that the
  checker, inference engine and solver all consume.

Types and predicates are immutable and hashable; program nodes are plain
mutable dataclasses carrying a node id and a source span.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union


# ---------------------------------------------------------------------------
# Spans and node ids


@dataclass(frozen=True)
class SourceSpan:
    file: str
    start: int
    end: int
    line: int
    col: int
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


NO_SPAN = SourceSpan("<builtin>", 0, 0, 0, 0)

_node_counter = itertools.count(1)


def next_node_id() -> int:
    return next(_node_counter)


# ---------------------------------------------------------------------------
# Runtime value sentinels (shared by parser literals and the interpreters)


class _Undefined:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "undefined"


class _Null:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "null"


UNDEFINED = _Undefined()
NULL = _Null()

Literal = Union[int, bool, str, _Undefined, _Null]


def literal_str(v: Literal) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, str):
        return '"%s"' % v.replace('"', '\\"')
    return repr(v) if not isinstance(v, int) else str(v)


# ---------------------------------------------------------------------------
# Logical terms


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TConst:
    """A literal; equality and hash see the literal's type, so `1` and
    `true` (equal in Python) stay distinct terms."""

    value: Literal

    def __eq__(self, other):
        return other.__class__ is TConst and \
            type(self.value) is type(other.value) and \
            self.value == other.value

    def __hash__(self):
        return hash((type(self.value), self.value))


@dataclass(frozen=True)
class TValueVar:
    """The reserved value variable (printed as `v`)."""


@dataclass(frozen=True)
class TThis:
    pass


@dataclass(frozen=True)
class TField:
    base: "Term"
    fname: str


@dataclass(frozen=True)
class TUF:
    """Uninterpreted function application: len, ttag, instanceof, ..."""

    fname: str
    args: tuple


@dataclass(frozen=True)
class TBuiltin:
    """Builtin operator application: add/sub/mul/div/mod, lt/le/gt/ge,
    eq/ne, and/or/not."""

    op: str
    args: tuple


Term = Union[TVar, TConst, TValueVar, TThis, TField, TUF, TBuiltin]


# ---------------------------------------------------------------------------
# Predicates


@dataclass(frozen=True)
class PAnd:
    conjuncts: tuple


@dataclass(frozen=True)
class PNot:
    pred: "Pred"


@dataclass(frozen=True)
class PAtom:
    term: Term


@dataclass(frozen=True)
class PKvar:
    """A refinement (kappa) variable application under a substitution.

    `subst` maps formal names (including the value variable, keyed as "v")
    to terms; it stays identity-shaped through checking and is resolved by
    the inference fixpoint.
    """

    kid: int
    subst: tuple  # tuple[(str, Term)], sorted by name


Pred = Union[PAnd, PNot, PAtom, PKvar]

P_TRUE = PAtom(TConst(True))
P_FALSE = PAtom(TConst(False))


def p_and(*preds: Pred) -> Pred:
    flat: list[Pred] = []
    for p in preds:
        if isinstance(p, PAnd):
            flat.extend(p.conjuncts)
        elif p == P_TRUE:
            continue
        else:
            flat.append(p)
    if not flat:
        return P_TRUE
    if len(flat) == 1:
        return flat[0]
    return PAnd(tuple(flat))


def p_not(p: Pred) -> Pred:
    if p == P_TRUE:
        return P_FALSE
    if p == P_FALSE:
        return P_TRUE
    if isinstance(p, PNot):
        return p.pred
    return PNot(p)


def p_or(a: Pred, b: Pred) -> Pred:
    return p_not(p_and(p_not(a), p_not(b)))


def p_implies(a: Pred, b: Pred) -> Pred:
    return p_not(p_and(a, p_not(b)))


def p_eq(a: Term, b: Term) -> Pred:
    return PAtom(TBuiltin("eq", (a, b)))


def conjuncts_of(p: Pred) -> list[Pred]:
    if isinstance(p, PAnd):
        out = []
        for c in p.conjuncts:
            out.extend(conjuncts_of(c))
        return out
    if p == P_TRUE:
        return []
    return [p]


# ---------------------------------------------------------------------------
# Base types and refinement types


@dataclass(frozen=True)
class BPrim:
    name: str  # number | bool | string | undefined | null


@dataclass(frozen=True)
class BClass:
    name: str


@dataclass(frozen=True)
class BVar:
    """A rigid type variable (generic placeholder)."""

    name: str


@dataclass(frozen=True)
class BBot:
    """Uninhabited base; only produced for un-unified instantiations
    (e.g. the return of `assert`)."""


@dataclass(frozen=True)
class BArr:
    elem: "RType"
    mut: str = "imm"


Base = Union[BPrim, BClass, BVar, BBot, BArr]

B_NUM = BPrim("number")
B_BOOL = BPrim("bool")
B_STR = BPrim("string")
B_UNDEF = BPrim("undefined")
B_NULL = BPrim("null")

# the `typeof` tag of the values of each primitive base
PRIM_TAG = {"number": "number", "bool": "boolean", "string": "string",
            "undefined": "undefined", "null": "object"}


def base_of_value(v) -> BPrim:
    """The primitive base of literal `v`."""
    if isinstance(v, bool):
        return B_BOOL
    if isinstance(v, int):
        return B_NUM
    if isinstance(v, str):
        return B_STR
    if v is UNDEFINED:
        return B_UNDEF
    if v is NULL:
        return B_NULL
    raise TypeError(v)


@dataclass(frozen=True)
class RBase:
    base: Base
    pred: Pred


@dataclass(frozen=True)
class RExists:
    name: str
    bound: "RType"
    body: "RType"


@dataclass(frozen=True)
class RFun:
    params: tuple  # tuple[(str, RType)]
    ret: "RType"
    tyvars: tuple = ()
    precond: Pred = P_TRUE


@dataclass(frozen=True)
class RInter:
    conjuncts: tuple  # tuple[RFun]


RType = Union[RBase, RExists, RFun, RInter]


def trivially_refine(base: Base) -> RType:
    """t abbreviates {v:t | true}."""
    return RBase(base, P_TRUE)


R_NUM = trivially_refine(B_NUM)
R_BOOL = trivially_refine(B_BOOL)
R_UNDEF = trivially_refine(B_UNDEF)
R_NULL = trivially_refine(B_NULL)
R_BOT = RBase(BBot(), P_FALSE)


# ---------------------------------------------------------------------------
# Structural maps over terms, predicates and types
#
# The one place that says which fields of a logic value hold its parts.
# A walker handles its own cases (binders, simplifications) and passes
# every other case to a map, which rebuilds the value, or reads its parts
# through an iterator.


def map_term(t: Term, f) -> Term:
    """`t` rebuilt with `f` applied to each immediate subterm; a leaf is
    returned as it is."""
    if isinstance(t, TBuiltin):
        return TBuiltin(t.op, tuple(map(f, t.args)))
    if isinstance(t, TUF):
        return TUF(t.fname, tuple(map(f, t.args)))
    if isinstance(t, TField):
        return TField(f(t.base), t.fname)
    return t


def term_children(t: Term) -> tuple:
    """The immediate subterms of `t`, in the order `map_term` visits them."""
    if isinstance(t, (TBuiltin, TUF)):
        return t.args
    if isinstance(t, TField):
        return (t.base,)
    return ()


def map_pred(p: Pred, leaf) -> Pred:
    """`p` rebuilt with `leaf` applied to each atom and refinement-variable
    application; conjunctions and negations keep their shape."""
    if isinstance(p, PAnd):
        return PAnd(tuple(map_pred(c, leaf) for c in p.conjuncts))
    if isinstance(p, PNot):
        return PNot(map_pred(p.pred, leaf))
    if isinstance(p, (PAtom, PKvar)):
        return leaf(p)
    raise TypeError(p)


def pred_leaves(p: Pred) -> Iterator:
    """The atoms and refinement-variable applications of `p`, in the order
    `map_pred` visits them."""
    if isinstance(p, PAnd):
        for c in p.conjuncts:
            yield from pred_leaves(c)
    elif isinstance(p, PNot):
        yield from pred_leaves(p.pred)
    elif isinstance(p, (PAtom, PKvar)):
        yield p
    else:
        raise TypeError(p)


def map_type(t: RType, on_type, on_pred) -> RType:
    """`t` rebuilt one level down: `on_type` applied to each immediate
    subtype (an array base's element, an existential's bound and body, a
    function's parameter types and its return when it has one, an
    intersection's conjuncts) and `on_pred` to each immediate predicate (a
    base's refinement, a function's precondition), in that order."""
    if isinstance(t, RBase):
        base = t.base
        if isinstance(base, BArr):
            base = BArr(on_type(base.elem), base.mut)
        return RBase(base, on_pred(t.pred))
    if isinstance(t, RExists):
        return RExists(t.name, on_type(t.bound), on_type(t.body))
    if isinstance(t, RFun):
        return RFun(tuple((n, on_type(pt)) for n, pt in t.params),
                    None if t.ret is None else on_type(t.ret), t.tyvars,
                    on_pred(t.precond))
    if isinstance(t, RInter):
        return RInter(tuple(on_type(c) for c in t.conjuncts))
    raise TypeError(t)


def type_children(t: RType) -> tuple:
    """The immediate subtypes of `t`, in the order `map_type` visits them."""
    if isinstance(t, RBase):
        return (t.base.elem,) if isinstance(t.base, BArr) else ()
    if isinstance(t, RExists):
        return (t.bound, t.body)
    if isinstance(t, RFun):
        ret = () if t.ret is None else (t.ret,)
        return tuple(pt for _, pt in t.params) + ret
    if isinstance(t, RInter):
        return t.conjuncts
    raise TypeError(t)


def exists_core(t: RType) -> RType:
    """The core of `t`: the type under its existential wrappers."""
    while isinstance(t, RExists):
        t = t.body
    return t


def map_core(t: RType, f) -> RType:
    """`t` with its core replaced by `f(core)` inside the same existential
    wrappers."""
    if isinstance(t, RExists):
        return RExists(t.name, t.bound, map_core(t.body, f))
    return f(t)


# ---------------------------------------------------------------------------
# Free variables and substitution over terms / predicates / types


def term_free_vars(t: Term) -> set[str]:
    if isinstance(t, TVar):
        return {t.name}
    out: set[str] = set()
    for a in term_children(t):
        out |= term_free_vars(a)
    return out


def pred_free_vars(p: Pred) -> set[str]:
    out: set[str] = set()
    for a in pred_leaves(p):
        terms = (a.term,) if isinstance(a, PAtom) else [t for _, t in a.subst]
        for t in terms:
            out |= term_free_vars(t)
    return out


def free_type_vars(t: RType) -> set[str]:
    """Logical variables occurring free in the type's predicates."""
    if isinstance(t, RExists):
        return free_type_vars(t.bound) | (free_type_vars(t.body) - {t.name})
    if isinstance(t, RFun):
        out = pred_free_vars(t.precond)
        bound: set[str] = set()
        for name, pt in t.params:
            out |= free_type_vars(pt) - bound
            bound.add(name)
        out |= free_type_vars(t.ret) - bound
        return out
    out = pred_free_vars(t.pred) if isinstance(t, RBase) else set()
    for c in type_children(t):
        out |= free_type_vars(c)
    return out


def term_subst(t: Term, m: dict) -> Term:
    """Substitute terms for names in `m`; the key "v" stands for the value
    variable and "this" for the receiver."""
    if isinstance(t, TVar):
        return m.get(t.name, t)
    if isinstance(t, TValueVar):
        return m.get("v", t)
    if isinstance(t, TThis):
        return m.get("this", t)
    return map_term(t, lambda a: term_subst(a, m))


def pred_subst(p: Pred, m: dict) -> Pred:
    if not m:
        return p

    def leaf(a):
        if isinstance(a, PAtom):
            return PAtom(term_subst(a.term, m))
        return PKvar(a.kid, tuple((n, term_subst(t, m)) for n, t in a.subst))
    return map_pred(p, leaf)


_fresh_alpha = itertools.count(1)


def type_subst(t: RType, m: dict) -> RType:
    """Capture-avoiding substitution of terms for free logical names."""
    if not m:
        return t
    if isinstance(t, RExists):
        binder = t.name
        body = t.body
        m2 = {k: v for k, v in m.items() if k != binder}
        hit = set()
        for v in m2.values():
            hit |= term_free_vars(v)
        if binder in hit:
            fresh = f"{binder}%{next(_fresh_alpha)}"
            body = type_subst(body, {binder: TVar(fresh)})
            binder = fresh
        return RExists(binder, type_subst(t.bound, m), type_subst(body, m2))
    if isinstance(t, RFun):
        m2 = dict(m)
        params = []
        for name, pt in t.params:
            params.append((name, type_subst(pt, m2)))
            m2.pop(name, None)
        return RFun(tuple(params), type_subst(t.ret, m2), t.tyvars,
                    pred_subst(t.precond, m2))
    return map_type(t, lambda c: type_subst(c, m), lambda p: pred_subst(p, m))


def base_subst(t: RType, m: dict) -> RType:
    """Substitute refinement types for type-variable bases."""
    if not m:
        return t
    if isinstance(t, RBase) and isinstance(t.base, BVar) and \
            t.base.name in m:
        inst = m[t.base.name]
        if isinstance(inst, RBase):
            return RBase(inst.base, p_and(inst.pred, t.pred))
        if t.pred == P_TRUE:
            return inst
        raise TypeError(f"cannot refine instantiation of {t.base.name}")
    if isinstance(t, RFun):
        m = {k: v for k, v in m.items() if k not in t.tyvars}
    return map_type(t, lambda c: base_subst(c, m), lambda p: p)


# ---------------------------------------------------------------------------
# Source expressions (shared by the imperative language and, with a few
# extra forms, the SSA target)


@dataclass
class Node:
    nid: int = field(default=-1, kw_only=True)
    span: SourceSpan = field(default=NO_SPAN, kw_only=True)


@dataclass
class EVar(Node):
    name: str


@dataclass
class EConst(Node):
    """A literal; at run time, any evaluated value."""

    value: Literal


@dataclass
class EThis(Node):
    pass


@dataclass
class EFieldRead(Node):
    obj: "Expr"
    fname: str


@dataclass
class EMethodCall(Node):
    obj: "Expr"
    mname: str
    args: list


@dataclass
class EFuncCall(Node):
    """Call of a named top-level function or builtin, or through a
    local variable holding a closure (callee as expression)."""

    callee: "Expr"
    args: list


@dataclass
class ENew(Node):
    cname: str
    args: list


@dataclass
class ECast(Node):
    rtype: RType
    expr: "Expr"


@dataclass
class EClosure(Node):
    """Reference to a lambda-lifted nested function with its captures."""

    fname: str
    captures: list


@dataclass
class EArgsLen(Node):
    """`arguments.length`; resolved to a constant per overload conjunct."""


@dataclass
class EWhileRun(Node):
    """Runtime-only state of an executing FRSC loop: the condition instance
    under evaluation, the phi values saved at iteration entry, and the
    pieces needed to unroll once more."""

    cond_focus: "Expr"
    cur_vals: list
    phis: list  # list[PhiWhile]
    cond_orig: "Expr"
    body_ctx: "Ctx"
    cont: "Expr"


@dataclass
class EFieldAssign(Node):
    """FRSC-only expression form e1.f = e2 (statement in the source)."""

    obj: "Expr"
    fname: str
    rhs: "Expr"


@dataclass
class ECtxApply(Node):
    """FRSC: an SSA context applied to its continuation, K[e]."""

    ctx: "Ctx"
    expr: "Expr"


Expr = Union[EVar, EConst, EThis, EFieldRead, EMethodCall, EFuncCall, ENew,
             ECast, EClosure, EArgsLen, EWhileRun, EFieldAssign,
             ECtxApply]


# ---------------------------------------------------------------------------
# SSA contexts


@dataclass
class PhiIf:
    """phi = left in branch 1, right in branch 2."""

    src: str
    phi: str
    left: str
    right: str


@dataclass
class PhiWhile:
    """phi joins init (loop entry) with next (back edge)."""

    src: str
    phi: str
    init: str
    next: str


@dataclass
class KHole(Node):
    pass


@dataclass
class KLetIn(Node):
    name: str
    expr: Expr
    rest: "Ctx"


@dataclass
class KLetIf(Node):
    phis: list  # list[PhiIf]
    cond: Expr
    then_ctx: "Ctx"
    else_ctx: "Ctx"
    rest: "Ctx"
    # expression slots for the branch values a phi selects; names bound
    # inside a branch stay symbolic until that branch's lets fire, names
    # bound outside are rewritten to values by enclosing substitutions
    left_exprs: list
    right_exprs: list


@dataclass
class KLetWhile(Node):
    phis: list  # list[PhiWhile]
    cond: Expr
    body_ctx: "Ctx"
    rest: "Ctx"
    # current values flowing into the phi names; starts as [EVar(p.init)]
    # and is rewritten by substitution as enclosing bindings reduce
    init_exprs: list


Ctx = Union[KHole, KLetIn, KLetIf, KLetWhile]


# ---------------------------------------------------------------------------
# Source statements and bodies


@dataclass
class SVarDecl(Node):
    name: str
    expr: Expr


@dataclass
class SAssign(Node):
    name: str
    expr: Expr


@dataclass
class SFieldAssign(Node):
    obj: Expr
    fname: str
    rhs: Expr


@dataclass
class SExprStmt(Node):
    expr: Expr


@dataclass
class SIte(Node):
    cond: Expr
    then_s: "Stmt"
    else_s: "Stmt"


@dataclass
class SWhile(Node):
    cond: Expr
    body: "Stmt"


@dataclass
class SSeq(Node):
    first: "Stmt"
    second: "Stmt"


@dataclass
class SSkip(Node):
    pass


Stmt = Union[SVarDecl, SAssign, SFieldAssign, SExprStmt, SIte, SWhile, SSeq,
             SSkip]


@dataclass
class BReturn(Node):
    expr: Expr


@dataclass
class BSeq(Node):
    stmt: Stmt
    rest: "Body"


@dataclass
class BIte(Node):
    """A conditional whose branches both conclude the body (the image of
    early returns after normalization)."""

    cond: Expr
    then_b: "Body"
    else_b: "Body"


Body = Union[BReturn, BSeq, BIte]


def seq_stmts(stmts: list, span: SourceSpan) -> Stmt:
    """Right-nested Seq normal form."""
    if not stmts:
        return SSkip(span=span, nid=next_node_id())
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = SSeq(s, out, span=s.span, nid=next_node_id())
    return out


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class FieldDecl:
    mut: str  # "imm" | "mut"
    name: str
    rtype: RType
    span: SourceSpan = NO_SPAN


@dataclass
class MethodDecl:
    name: str
    params: list  # list[(str, RType)]
    precond: Pred
    ret: RType
    body: Optional[Body]
    tyvars: tuple = ()
    span: SourceSpan = NO_SPAN
    is_ctor: bool = False

    @property
    def signature(self) -> RFun:
        return RFun(tuple(self.params), self.ret, self.tyvars, self.precond)


@dataclass
class ClassDecl:
    name: str
    invariant: Pred
    parent: Optional[str]
    fields: list  # list[FieldDecl]
    methods: list  # list[MethodDecl]
    span: SourceSpan = NO_SPAN


@dataclass
class FuncDecl:
    name: str
    params: list  # list[str]; types live in `signature`
    signature: Optional[RType]  # RFun or RInter; None = unannotated (nested)
    body: Optional[Body]  # None = ghost (trusted lemma)
    span: SourceSpan = NO_SPAN
    is_ghost: bool = False
    captures: list = field(default_factory=list)  # lifted closure captures


@dataclass
class TypeAliasDecl:
    name: str
    params: list  # list[str]
    body: RType  # may contain BVar / TVar placeholders for params
    span: SourceSpan = NO_SPAN


@dataclass
class Program:
    aliases: dict
    classes: list  # list[ClassDecl]
    functions: list  # list[FuncDecl]
    top: Optional[Body]
    file: str = "<input>"


# ---------------------------------------------------------------------------
# Pretty printing


_PREC = {"or": 1, "and": 2, "eq": 3, "ne": 3, "lt": 4, "le": 4, "gt": 4,
         "ge": 4, "add": 5, "sub": 5, "mul": 6, "div": 6, "mod": 6}
_OPTXT = {"or": "||", "and": "&&", "eq": "=", "ne": "!=", "lt": "<",
          "le": "<=", "gt": ">", "ge": ">=", "add": "+", "sub": "-",
          "mul": "*", "div": "/", "mod": "%"}


def term_str(t: Term, prec: int = 0) -> str:
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TConst):
        return literal_str(t.value)
    if isinstance(t, TValueVar):
        return "v"
    if isinstance(t, TThis):
        return "this"
    if isinstance(t, TField):
        return f"{term_str(t.base, 9)}.{t.fname}"
    if isinstance(t, TUF):
        return f"{t.fname}({', '.join(term_str(a) for a in t.args)})"
    if isinstance(t, TBuiltin):
        if t.op == "not":
            return f"!{term_str(t.args[0], 9)}"
        if t.op == "neg":
            return f"-{term_str(t.args[0], 9)}"
        p = _PREC[t.op]
        s = f" {_OPTXT[t.op]} ".join(term_str(a, p + 1) for a in t.args)
        return f"({s})" if p < prec else s
    raise TypeError(t)


def pred_str(p: Pred) -> str:
    if isinstance(p, PAnd):
        return " && ".join(f"({pred_str(c)})" if isinstance(c, PAnd) else
                           pred_str(c) for c in p.conjuncts)
    if isinstance(p, PNot):
        inner = p.pred
        # re-sugar p => q, printed from not(p && not q)
        if isinstance(inner, PAnd) and len(inner.conjuncts) == 2 and \
                isinstance(inner.conjuncts[1], PNot):
            lhs, rhs = inner.conjuncts
            return f"({pred_str(lhs)}) => ({pred_str(rhs.pred)})"
        return f"!({pred_str(inner)})"
    if isinstance(p, PAtom):
        return term_str(p.term)
    if isinstance(p, PKvar):
        sub = ", ".join(f"{n}:={term_str(t)}" for n, t in p.subst
                        if not (isinstance(t, TVar) and t.name == n)
                        and not (n == "v" and isinstance(t, TValueVar)))
        return f"k{p.kid}" + (f"[{sub}]" if sub else "")
    raise TypeError(p)


def base_str(b: Base) -> str:
    if isinstance(b, BPrim):
        return b.name
    if isinstance(b, (BClass, BVar)):
        return b.name
    if isinstance(b, BBot):
        return "bot"
    if isinstance(b, BArr):
        return f"{type_str(b.elem, 9)}[]"
    raise TypeError(b)


def type_str(t: RType, prec: int = 0) -> str:
    if isinstance(t, RBase):
        if t.pred == P_TRUE:
            return base_str(t.base)
        return "{v:%s | %s}" % (base_str(t.base), pred_str(t.pred))
    if isinstance(t, RExists):
        s = f"exists {t.name}:{type_str(t.bound)}. {type_str(t.body)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, RFun):
        tv = f"<{', '.join(t.tyvars)}>" if t.tyvars else ""
        ps = ", ".join(f"{n}:{type_str(pt)}" for n, pt in t.params)
        s = f"{tv}({ps}) => {type_str(t.ret)}"
        if t.precond != P_TRUE:
            s += f" requires {pred_str(t.precond)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, RInter):
        return " /\\ ".join(type_str(c, 9) for c in t.conjuncts)
    raise TypeError(t)


_SRC_BINOPS = {"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
               "===", "!==", "&&", "||"}


def expr_str(e: Expr) -> str:
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, EConst):
        v = e.value
        return literal_str(v) if isinstance(v, (int, bool, str)) or v in (
            UNDEFINED, NULL) else f"#{v!r}"
    if isinstance(e, EThis):
        return "this"
    if isinstance(e, EFieldRead):
        return f"{expr_str(e.obj)}.{e.fname}"
    if isinstance(e, EMethodCall):
        return f"{expr_str(e.obj)}.{e.mname}({', '.join(expr_str(a) for a in e.args)})"
    if isinstance(e, EFuncCall):
        if isinstance(e.callee, EVar):
            name = e.callee.name
            if name in _SRC_BINOPS and len(e.args) == 2:
                return f"({expr_str(e.args[0])} {name} {expr_str(e.args[1])})"
            if name == "!" and len(e.args) == 1:
                return f"!{expr_str(e.args[0])}"
            if name == "neg" and len(e.args) == 1:
                return f"(-{expr_str(e.args[0])})"
            if name == "typeof" and len(e.args) == 1:
                return f"typeof {expr_str(e.args[0])}"
            if name == "newarray#":
                return f"new Array({', '.join(expr_str(a) for a in e.args)})"
            if name == "arraylit#":
                return f"[{', '.join(expr_str(a) for a in e.args)}]"
        return f"{expr_str(e.callee)}({', '.join(expr_str(a) for a in e.args)})"
    if isinstance(e, ENew):
        return f"new {e.cname}({', '.join(expr_str(a) for a in e.args)})"
    if isinstance(e, ECast):
        return f"<{type_str(e.rtype)}> {expr_str(e.expr)}"
    if isinstance(e, EClosure):
        return e.fname
    if isinstance(e, EArgsLen):
        return "arguments.length"
    if isinstance(e, EWhileRun):
        phis = ", ".join(f"{p.phi}={expr_str(EConst(v))}"
                         for p, v in zip(e.phis, e.cur_vals))
        return (f"whilerun [{phis}] ({expr_str(e.cond_focus)})"
                f" {{ {ctx_str(e.body_ctx, 'o')} }} in\n{expr_str(e.cont)}")
    if isinstance(e, EFieldAssign):
        return f"{expr_str(e.obj)}.{e.fname} = {expr_str(e.rhs)}"
    if isinstance(e, ECtxApply):
        return ctx_str(e.ctx, expr_str(e.expr))
    raise TypeError(e)


def ctx_str(k: Ctx, hole: str) -> str:
    if isinstance(k, KHole):
        return hole
    if isinstance(k, KLetIn):
        return f"let {k.name} = {expr_str(k.expr)} in\n{ctx_str(k.rest, hole)}"
    if isinstance(k, KLetIf):
        phis = ", ".join(f"{p.phi}=phi({p.left},{p.right})" for p in k.phis)
        return (f"letif [{phis}] ({expr_str(k.cond)})"
                f" {{ {ctx_str(k.then_ctx, 'o')} }}"
                f" {{ {ctx_str(k.else_ctx, 'o')} }} in\n{ctx_str(k.rest, hole)}")
    if isinstance(k, KLetWhile):
        phis = ", ".join(f"{p.phi}=phi({p.init},{p.next})" for p in k.phis)
        return (f"letwhile [{phis}] ({expr_str(k.cond)})"
                f" {{ {ctx_str(k.body_ctx, 'o')} }} in\n{ctx_str(k.rest, hole)}")
    raise TypeError(k)


def stmt_str(s: Stmt, ind: str = "") -> str:
    if isinstance(s, SVarDecl):
        return f"{ind}var {s.name} = {expr_str(s.expr)};"
    if isinstance(s, SAssign):
        return f"{ind}{s.name} = {expr_str(s.expr)};"
    if isinstance(s, SFieldAssign):
        return f"{ind}{expr_str(s.obj)}.{s.fname} = {expr_str(s.rhs)};"
    if isinstance(s, SExprStmt):
        return f"{ind}{expr_str(s.expr)};"
    if isinstance(s, SIte):
        return (f"{ind}if ({expr_str(s.cond)}) {{\n{stmt_str(s.then_s, ind + '  ')}\n"
                f"{ind}}} else {{\n{stmt_str(s.else_s, ind + '  ')}\n{ind}}}")
    if isinstance(s, SWhile):
        return (f"{ind}while ({expr_str(s.cond)}) {{\n"
                f"{stmt_str(s.body, ind + '  ')}\n{ind}}}")
    if isinstance(s, SSeq):
        return f"{stmt_str(s.first, ind)}\n{stmt_str(s.second, ind)}"
    if isinstance(s, SSkip):
        return f"{ind};"
    raise TypeError(s)


def body_str(b: Body, ind: str = "") -> str:
    if isinstance(b, BReturn):
        return f"{ind}return {expr_str(b.expr)};"
    if isinstance(b, BSeq):
        return f"{stmt_str(b.stmt, ind)}\n{body_str(b.rest, ind)}"
    if isinstance(b, BIte):
        return (f"{ind}if ({expr_str(b.cond)}) {{\n{body_str(b.then_b, ind + '  ')}\n"
                f"{ind}}} else {{\n{body_str(b.else_b, ind + '  ')}\n{ind}}}")
    raise TypeError(b)


# ---------------------------------------------------------------------------
# Generic traversal helpers


@functools.cache
def subtree_fields(cls: type) -> tuple:
    """The names of the fields of node class `cls` that can hold a subtree,
    in declaration order: every field but the `nid` and `span` each node
    carries.  Computed once per class.  This is the one per-class rule of
    the node trees: the walks below and the simulation's structural
    equality all read it.

    A subtree is a value with a `nid` (a node) or a list of such values.
    The rule is applied to each value, not to the field: a field can hold
    a subtree or a leaf (an `SReturn`'s expression is a node or None, an
    `EVar`'s name a string, a `KLetIf`'s phis a list of records).
    """
    return tuple(f.name for f in fields(cls) if f.name not in ("nid", "span"))


def walk_tree(tree) -> Iterator:
    """Every node of `tree` (a node or a list of nodes), in pre-order."""
    if isinstance(tree, list):
        for x in tree:
            yield from walk_tree(x)
    elif hasattr(tree, "nid"):
        yield tree
        for name in subtree_fields(type(tree)):
            yield from walk_tree(getattr(tree, name))


def children(node) -> Iterator:
    """The nodes held in the subtree fields of `node`, in field order."""
    for name in subtree_fields(type(node)):
        v = getattr(node, name)
        if isinstance(v, list):
            yield from (c for c in v if hasattr(c, "nid"))
        elif hasattr(v, "nid"):
            yield v


def with_field(node, name: str, value):
    """A copy of `node` with field `name` set to `value`: the same class,
    and every other field, `nid` and `span` included, shared with `node`.
    This is the one way a node, or a logic value, is copied."""
    new = object.__new__(node.__class__)
    new.__dict__.update(node.__dict__)
    new.__dict__[name] = value
    return new


def clone_tree(tree):
    """A deep copy of `tree` with fresh node ids, allocated in pre-order."""
    if isinstance(tree, list):
        return [clone_tree(x) for x in tree]
    if not hasattr(tree, "nid"):
        return tree
    new = with_field(tree, "nid", next_node_id())
    for name in subtree_fields(type(tree)):
        setattr(new, name, clone_tree(getattr(tree, name)))
    return new


def replace_in_tree(tree, repl) -> None:
    """Rewrite `tree` in place: the child `c` held in field `name` of node
    `n` becomes `repl(n, name, c)` unless that is None, in which case the
    walk goes on inside `c`.  Replacements are not walked."""
    for name in subtree_fields(type(tree)):
        v = getattr(tree, name)
        if isinstance(v, list):
            for i, c in enumerate(v):
                r = repl(tree, name, c)
                if r is not None:
                    v[i] = r
                elif hasattr(c, "nid"):
                    replace_in_tree(c, repl)
        elif hasattr(v, "nid"):
            r = repl(tree, name, v)
            if r is not None:
                setattr(tree, name, r)
            else:
                replace_in_tree(v, repl)


def assigned_names(s: Stmt, outer: set[str]) -> list[str]:
    """Variables from `outer` that s updates anywhere (assignment, or a
    re-declaration of a live name), in first-update order."""
    seen: list[str] = []
    for node in walk_tree(s):
        if isinstance(node, (SVarDecl, SAssign)):
            if node.name in outer and node.name not in seen:
                seen.append(node.name)
    return seen
