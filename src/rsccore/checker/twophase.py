"""Two-phase checking of intersection-typed (overloaded) functions.

Phase one clones the function once per conjunct, resolves
`arguments.length` to the conjunct's arity, and checks each clone in a
refinement-erased shape system: the conjunct's type variables are rigid,
a callee's are unification variables.  The smallest statement whose
shapes do not work out becomes a dead-code assertion.  Phase two is the
ordinary refinement check of each clone, which must prove every such
assertion unreachable."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..frontend.prelude import load_prelude
from ..logic import ClassTable, WfViolation
from ..syntax import (
    BArr, BClass, BIte, BPrim, BReturn, BSeq, BVar, Body, EArgsLen, ECast,
    EClosure, EConst, EFieldRead, EFuncCall, EMethodCall, ENew, EVar, Expr,
    FuncDecl, P_TRUE, Program, RBase, RFun, RInter, RType, SAssign,
    SExprStmt, SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile, Stmt, TThis,
    base_of_value, clone_tree, exists_core, next_node_id, replace_in_tree,
    select_conjunct,
)


class ShapeError(Exception):
    pass


# shapes: ("num")|("bool")|("str")|("undef")|("null")
#         ("class", name)|("arr", shape)|("rigid", name)
#         ("fun", (params...), ret)|("closure", fname)|("meta", id)

_PRIM_SHAPES = {"number": ("num",), "bool": ("bool",), "string": ("str",),
                "undefined": ("undef",), "null": ("null",)}


class ShapeChecker:
    def __init__(self, program: Program, classes: ClassTable):
        # name -> signature; None for an unannotated (nested) function
        self.signatures = {f.name: f.signature for f in program.functions}
        self.classes = classes
        self.prelude = load_prelude()
        self._meta = itertools.count(0)
        self.solution: dict[int, tuple] = {}

    # -- unification -----------------------------------------------------------

    def fresh(self):
        return ("meta", next(self._meta))

    def resolve(self, s):
        while s[0] == "meta" and s[1] in self.solution:
            s = self.solution[s[1]]
        return s

    def unify(self, a, b):
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if a[0] == "meta":
            self.solution[a[1]] = b
            return
        if b[0] == "meta":
            self.solution[b[1]] = a
            return
        if a[0] == "arr" and b[0] == "arr":
            self.unify(a[1], b[1])
            return
        if a[0] == "fun" and b[0] == "fun":
            if len(a[1]) != len(b[1]):
                raise ShapeError("function arity mismatch")
            for x, y in zip(a[1], b[1]):
                self.unify(x, y)
            self.unify(a[2], b[2])
            return
        if a[0] == "closure" or b[0] == "closure":
            # unannotated nested functions check against any function shape
            other = b if a[0] == "closure" else a
            if other[0] in ("fun", "closure", "rigid"):
                return
            raise ShapeError("function value used where a"
                             f" {other[0]} is expected")
        if a[0] == "class" and b[0] == "class":
            # nominal subtyping is not shape-relevant here; accept and let
            # refinement checking decide
            return
        raise ShapeError(f"shape mismatch: {a[0]} vs {b[0]}")

    # -- instantiation -----------------------------------------------------------

    def shape_of_type(self, t: RType, inst: Optional[dict] = None):
        """The shape of `t`; a type variable is `inst`'s shape for it, or
        rigid."""
        t = exists_core(t)
        if isinstance(t, RBase):
            b = t.base
            if isinstance(b, BPrim):
                return _PRIM_SHAPES[b.name]
            if isinstance(b, BClass):
                return ("class", b.name)
            if isinstance(b, BArr):
                return ("arr", self.shape_of_type(b.elem, inst))
            if isinstance(b, BVar):
                return inst[b.name] if inst and b.name in inst \
                    else ("rigid", b.name)
        if isinstance(t, RFun):
            return ("fun",
                    tuple(self.shape_of_type(pt, inst) for _, pt in t.params),
                    self.shape_of_type(t.ret, inst)
                    if t.ret is not None else self.fresh())
        raise ShapeError(f"no shape for {type(t).__name__}")

    # -- expressions ---------------------------------------------------------

    def expr(self, env: dict, e: Expr):
        if isinstance(e, EVar):
            if e.name not in env:
                raise ShapeError(f"unbound {e.name!r} in this overload")
            return env[e.name]
        if isinstance(e, EConst):
            return _PRIM_SHAPES[base_of_value(e.value).name]
        if isinstance(e, EClosure):
            return ("closure", e.fname)
        if isinstance(e, EFieldRead):
            _, ft = self._member(env, e.obj, self.classes.field_of, e.fname)
            return self.shape_of_type(ft)
        if isinstance(e, EMethodCall):
            sig, _, _ = self._member(env, e.obj, self.classes.has_member,
                                     e.mname)
            return self.call(env, sig, e.args)
        if isinstance(e, EFuncCall):
            callee = e.callee
            if isinstance(callee, EVar) and callee.name not in env:
                name = callee.name
                if name not in self.signatures and name not in self.prelude:
                    raise ShapeError(f"unknown function {name!r}")
                return self.call(env, self.signatures.get(
                    name, self.prelude.get(name)), e.args)
            cs = self.resolve(self.expr(env, callee))
            if cs[0] == "fun":
                return self._apply(env, cs, e.args)
            if cs[0] in ("closure", "rigid", "meta"):
                return self.call(env, None, e.args)
            raise ShapeError("call of a non-function shape")
        if isinstance(e, ENew):
            for a in e.args:
                self.expr(env, a)
            return ("class", e.cname)
        if isinstance(e, ECast):
            self.expr(env, e.expr)
            return self.shape_of_type(e.rtype)
        raise ShapeError(f"no shape rule for {type(e).__name__}")

    def _member(self, env, obj: Expr, lookup, name: str):
        """The `ClassTable` `lookup` of member `name` in the class of
        `obj`'s shape."""
        s = self.resolve(self.expr(env, obj))
        if s[0] != "class":
            raise ShapeError(f"member {name!r} of a non-object shape")
        try:
            return lookup(RBase(BClass(s[1]), P_TRUE), TThis(), name)
        except WfViolation as e:
            raise ShapeError(e.reason) from None

    def call(self, env, sig: Optional[RType], args):
        """The result shape of a call with signature `sig`; None is an
        unannotated function, whose arguments are only checked."""
        if sig is None:
            for a in args:
                self.expr(env, a)
            return self.fresh()
        if isinstance(sig, RInter):
            sig = select_conjunct(sig, len(args))
            if sig is None:
                raise ShapeError(f"no overload with arity {len(args)}")
        inst = {tv: self.fresh() for tv in sig.tyvars}
        return self._apply(env, self.shape_of_type(sig, inst), args)

    def _apply(self, env, fun: tuple, args):
        _, params, ret = fun
        if len(params) != len(args):
            raise ShapeError("call arity mismatch")
        for p, a in zip(params, args):
            self.unify(self.expr(env, a), p)
        return ret

    # -- statements with dead-code replacement ----------------------------------

    def check_stmt(self, env: dict, s: Stmt) -> Stmt:
        """Returns s, or its replacement by assert(false) when ill-shaped
        (the smallest enclosing statement is replaced)."""
        if isinstance(s, SSeq):
            s.first = self.check_stmt(env, s.first)
            s.second = self.check_stmt(env, s.second)
            return s
        if isinstance(s, SIte):
            try:
                self.unify(self.expr(env, s.cond), ("bool",))
            except ShapeError:
                return _assert_false_stmt(s)
            s.then_s = self.check_stmt(dict(env), s.then_s)
            s.else_s = self.check_stmt(dict(env), s.else_s)
            return s
        if isinstance(s, SWhile):
            try:
                self.unify(self.expr(env, s.cond), ("bool",))
            except ShapeError:
                return _assert_false_stmt(s)
            s.body = self.check_stmt(dict(env), s.body)
            return s
        try:
            if isinstance(s, SVarDecl):
                env[s.name] = self.expr(env, s.expr)
                return s
            if isinstance(s, SAssign):
                if s.name not in env:
                    raise ShapeError(f"unbound {s.name!r}")
                self.unify(env[s.name], self.expr(env, s.expr))
                return s
            if isinstance(s, SFieldAssign):
                self.expr(env, s.obj)
                self.expr(env, s.rhs)
                return s
            if isinstance(s, SExprStmt):
                self.expr(env, s.expr)
                return s
            if isinstance(s, SSkip):
                return s
        except ShapeError:
            return _assert_false_stmt(s)
        raise TypeError(s)

    def check_body(self, env: dict, b: Body, ret_shape) -> Body:
        if isinstance(b, BReturn):
            try:
                self.unify(self.expr(env, b.expr), ret_shape)
                return b
            except ShapeError:
                return _assert_false_return(b)
        if isinstance(b, BSeq):
            b.stmt = self.check_stmt(env, b.stmt)
            b.rest = self.check_body(env, b.rest, ret_shape)
            return b
        if isinstance(b, BIte):
            try:
                self.unify(self.expr(env, b.cond), ("bool",))
            except ShapeError:
                return _assert_false_return(b)
            b.then_b = self.check_body(dict(env), b.then_b, ret_shape)
            b.else_b = self.check_body(dict(env), b.else_b, ret_shape)
            return b
        raise TypeError(b)


def _assert_call(span) -> EFuncCall:
    return EFuncCall(EVar("assert", span=span, nid=next_node_id()),
                     [EConst(False, span=span, nid=next_node_id())],
                     span=span, nid=next_node_id())


def _assert_false_stmt(s: Stmt) -> Stmt:
    return SExprStmt(_assert_call(s.span), span=s.span, nid=next_node_id())


def _assert_false_return(b: Body) -> Body:
    return BReturn(_assert_call(b.span), span=b.span, nid=next_node_id())


@dataclass
class OverloadClone:
    base_name: str
    index: int  # 1-based conjunct index
    decl: FuncDecl

    @property
    def name(self) -> str:
        return self.decl.name


def two_phase_expand(fn: FuncDecl, program: Program) -> list:
    """Clones of an intersection-typed function, one per conjunct, each
    shape-checked with ill-typed statements replaced by assert(false)."""
    sig = fn.signature
    if not isinstance(sig, RInter):
        return []
    checker = ShapeChecker(program, ClassTable(program))
    clones: list[OverloadClone] = []
    for i, conj in enumerate(sig.conjuncts, 1):
        body: Body = clone_tree(fn.body)
        arity = len(conj.params)
        replace_in_tree(body, lambda node, field, c:
                        EConst(arity, span=c.span, nid=next_node_id())
                        if isinstance(c, EArgsLen) else None)
        _, params, ret_shape = checker.shape_of_type(conj)
        env = {pname: s for (pname, _), s in zip(conj.params, params)}
        body = checker.check_body(env, body, ret_shape)
        decl = FuncDecl(f"{fn.name}@{i}", [n for n, _ in conj.params], conj,
                        body, fn.span)
        clones.append(OverloadClone(fn.name, i, decl))
    return clones
