"""Phase one of overload checking: a refinement-erased shape system with
rigid type variables for the conjunct under check and unification
variables for callee instantiations.  Statements whose shapes do not work
out are replaced by dead-code assertions for phase two to discharge."""

from __future__ import annotations

import itertools
from typing import Optional

from ..syntax import (
    BArr, BBot, BClass, BPrim, BVar, BIte, BReturn, BSeq, Body, EArgsLen,
    ECast, EClosure, EConst, EFieldRead, EFuncCall, EMethodCall, ENew, EThis,
    EVar, Expr, P_TRUE, RBase, RFun, RInter, RType, SAssign, SExprStmt,
    SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile, Stmt, base_of_value,
    exists_core, next_node_id,
)


class ShapeError(Exception):
    pass


# shapes: ("num")|("bool")|("str")|("undef")|("null")|("bot")
#         ("class", name)|("arr", shape)|("rigid", name)
#         ("fun", (params...), ret)|("closure", fname)|("meta", id)


class ShapeChecker:
    def __init__(self, fn_shapes: dict, class_fields: dict,
                 class_methods: dict, prelude_shapes: dict):
        self.fn_shapes = fn_shapes  # name -> shape or list of fun shapes
        self.class_fields = class_fields  # cname -> {fname: shape}
        self.class_methods = class_methods  # cname -> {mname: fun shape}
        self.prelude = prelude_shapes
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
        if a[0] == "bot" or b[0] == "bot":
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

    def shape_of_type(self, t: RType, rigid: set, inst: Optional[dict] = None):
        t = exists_core(t)
        if isinstance(t, RBase):
            b = t.base
            if isinstance(b, BPrim):
                return {"number": ("num",), "bool": ("bool",),
                        "string": ("str",), "undefined": ("undef",),
                        "null": ("null",)}[b.name]
            if isinstance(b, BClass):
                return ("class", b.name)
            if isinstance(b, BArr):
                return ("arr", self.shape_of_type(b.elem, rigid, inst))
            if isinstance(b, BVar):
                if inst is not None and b.name in inst:
                    return inst[b.name]
                if b.name in rigid:
                    return ("rigid", b.name)
                return ("rigid", b.name)
            if isinstance(b, BBot):
                return ("bot",)
        if isinstance(t, RFun):
            return ("fun",
                    tuple(self.shape_of_type(pt, rigid, inst)
                          for _, pt in t.params),
                    self.shape_of_type(t.ret, rigid, inst)
                    if t.ret is not None else self.fresh())
        if isinstance(t, RInter):
            return [self.shape_of_type(c, rigid, inst) for c in t.conjuncts]
        raise ShapeError(f"no shape for {type(t).__name__}")

    def instantiate_fun(self, sig: RFun, rigid: set):
        inst = {tv: self.fresh() for tv in sig.tyvars}
        params = tuple(self.shape_of_type(pt, rigid, inst)
                       for _, pt in sig.params)
        ret = self.shape_of_type(sig.ret, rigid, inst) \
            if sig.ret is not None else self.fresh()
        return params, ret

    # -- expressions ---------------------------------------------------------

    def expr(self, env: dict, e: Expr, rigid: set):
        if isinstance(e, EVar):
            if e.name not in env:
                raise ShapeError(f"unbound {e.name!r} in this overload")
            return env[e.name]
        if isinstance(e, EConst):
            return self.shape_of_type(
                RBase(base_of_value(e.value), P_TRUE), rigid)
        if isinstance(e, EThis):
            if "this" not in env:
                raise ShapeError("this outside a method")
            return env["this"]
        if isinstance(e, EArgsLen):
            return ("num",)
        if isinstance(e, EClosure):
            return ("closure", e.fname)
        if isinstance(e, EFieldRead):
            ts = self.resolve(self.expr(env, e.obj, rigid))
            if ts[0] == "class":
                fields = self.class_fields.get(ts[1], {})
                if e.fname not in fields:
                    raise ShapeError(f"no field {e.fname} on {ts[1]}")
                return fields[e.fname]
            raise ShapeError("field read on a non-object shape")
        if isinstance(e, EMethodCall):
            ts = self.resolve(self.expr(env, e.obj, rigid))
            if ts[0] != "class":
                raise ShapeError("method call on a non-object shape")
            sig = self.class_methods.get(ts[1], {}).get(e.mname)
            if sig is None:
                raise ShapeError(f"no method {e.mname} on {ts[1]}")
            return self.call(env, sig, e.args, rigid)
        if isinstance(e, EFuncCall):
            callee = e.callee
            if isinstance(callee, EVar) and callee.name not in env:
                sig = self.fn_shapes.get(callee.name) or \
                    self.prelude.get(callee.name)
                if sig is None:
                    raise ShapeError(f"unknown function {callee.name!r}")
                return self.call(env, sig, e.args, rigid)
            cs = self.resolve(self.expr(env, callee, rigid))
            if cs[0] == "fun":
                return self.call_shape(env, cs, e.args, rigid)
            if cs[0] in ("closure", "rigid", "meta", "bot"):
                for a in e.args:
                    self.expr(env, a, rigid)
                return self.fresh()
            raise ShapeError("call of a non-function shape")
        if isinstance(e, ENew):
            for a in e.args:
                self.expr(env, a, rigid)
            return ("class", e.cname)
        if isinstance(e, ECast):
            self.expr(env, e.expr, rigid)
            return self.shape_of_type(e.rtype, rigid)
        raise ShapeError(f"no shape rule for {type(e).__name__}")

    def call(self, env, sig, args, rigid):
        if isinstance(sig, RInter):
            sig = self._select(sig, len(args))
        if isinstance(sig, RFun):
            params, ret = self.instantiate_fun(sig, rigid)
            return self._apply(env, params, ret, args, rigid)
        if isinstance(sig, tuple) and sig[0] == "closure":
            for a in args:
                self.expr(env, a, rigid)
            return self.fresh()
        if isinstance(sig, tuple) and sig[0] == "fun":
            return self.call_shape(env, sig, args, rigid)
        raise ShapeError("call of a non-function")

    def _select(self, inter: RInter, n: int) -> RFun:
        for c in inter.conjuncts:
            if len(c.params) == n:
                return c
        raise ShapeError(f"no overload with arity {n}")

    def call_shape(self, env, cs, args, rigid):
        if len(cs[1]) != len(args):
            raise ShapeError("call arity mismatch")
        return self._apply(env, cs[1], cs[2], args, rigid)

    def _apply(self, env, params, ret, args, rigid):
        if len(params) != len(args):
            raise ShapeError("call arity mismatch")
        for p, a in zip(params, args):
            s = self.expr(env, a, rigid)
            self.unify(s, p)
        return ret

    # -- statements with dead-code replacement ----------------------------------

    def check_stmt(self, env: dict, s: Stmt, rigid: set) -> Stmt:
        """Returns s, or its replacement by assert(false) when ill-shaped
        (the smallest enclosing statement is replaced)."""
        if isinstance(s, SSeq):
            s.first = self.check_stmt(env, s.first, rigid)
            s.second = self.check_stmt(env, s.second, rigid)
            return s
        if isinstance(s, SIte):
            try:
                cs = self.expr(env, s.cond, rigid)
                self.unify(cs, ("bool",))
            except ShapeError:
                return _assert_false_stmt(s)
            s.then_s = self.check_stmt(dict(env), s.then_s, rigid)
            s.else_s = self.check_stmt(dict(env), s.else_s, rigid)
            return s
        if isinstance(s, SWhile):
            try:
                cs = self.expr(env, s.cond, rigid)
                self.unify(cs, ("bool",))
            except ShapeError:
                return _assert_false_stmt(s)
            s.body = self.check_stmt(dict(env), s.body, rigid)
            return s
        try:
            if isinstance(s, SVarDecl):
                env[s.name] = self.expr(env, s.expr, rigid)
                return s
            if isinstance(s, SAssign):
                if s.name not in env:
                    raise ShapeError(f"unbound {s.name!r}")
                self.unify(env[s.name], self.expr(env, s.expr, rigid))
                return s
            if isinstance(s, SFieldAssign):
                self.expr(env, s.obj, rigid)
                self.expr(env, s.rhs, rigid)
                return s
            if isinstance(s, SExprStmt):
                self.expr(env, s.expr, rigid)
                return s
            if isinstance(s, SSkip):
                return s
        except ShapeError:
            return _assert_false_stmt(s)
        raise TypeError(s)

    def check_body(self, env: dict, b: Body, ret_shape, rigid: set) -> Body:
        if isinstance(b, BReturn):
            try:
                s = self.expr(env, b.expr, rigid)
                self.unify(s, ret_shape)
                return b
            except ShapeError:
                return _assert_false_return(b)
        if isinstance(b, BSeq):
            b.stmt = self.check_stmt(env, b.stmt, rigid)
            b.rest = self.check_body(env, b.rest, ret_shape, rigid)
            return b
        if isinstance(b, BIte):
            try:
                cs = self.expr(env, b.cond, rigid)
                self.unify(cs, ("bool",))
            except ShapeError:
                return _assert_false_return(b)
            b.then_b = self.check_body(dict(env), b.then_b, ret_shape, rigid)
            b.else_b = self.check_body(dict(env), b.else_b, ret_shape, rigid)
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
