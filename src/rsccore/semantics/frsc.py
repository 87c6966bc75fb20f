"""Small-step interpreter for the functional SSA language: a heap plus a
closed focus expression reduced by substitution: let-in, letif with
one-step phi selection, invoke-by-substitution, checked casts, and the
loop form's enter/iterate/exit rules."""

from __future__ import annotations

from dataclasses import dataclass

from ..syntax import (
    BArr, BClass, BPrim, Ctx, EArgsLen, ECast, EClosure, EConst,
    ECtxApply, EFieldAssign, EFieldRead, EFuncCall, EMethodCall, ENew,
    EThis, EVal, EVar, Expr, KHole, KLetIf, KLetIn, KLetWhile, Node,
    P_TRUE, RBase, RExists, RType,
)
from .evalpred import eval_pred
from .stepper import ExprStepper
from .values import (
    HArr, HObj, Heap, MISSING, StuckError, Value, deref, mk_val, type_tag,
    val_of,
)


@dataclass
class EWhileRun(Node):
    """Runtime state of an executing loop: the condition instance under
    evaluation, the phi values saved at iteration entry, and the pieces
    needed to unroll once more."""

    cond_focus: Expr
    cur_vals: list
    phis: list
    cond_orig: Expr
    body_ctx: Ctx
    cont: Expr


@dataclass
class FrscConfig:
    heap: Heap
    focus: Expr
    steps: int = 0


# ---------------------------------------------------------------------------
# Capture-avoiding substitution (names are unique per translation, but loop
# bodies re-instantiate their binders on each unrolling)


def subst_expr(e, m: dict):
    if not m:
        return e
    if isinstance(e, EVar):
        return m.get(e.name, e)
    if isinstance(e, EThis):
        return m.get("this", e)
    if isinstance(e, EArgsLen):
        return m.get("#argc", e)
    if isinstance(e, (EConst, EVal)):
        return e
    if isinstance(e, EFieldRead):
        return EFieldRead(subst_expr(e.obj, m), e.fname, nid=e.nid,
                          span=e.span)
    if isinstance(e, EMethodCall):
        return EMethodCall(subst_expr(e.obj, m), e.mname,
                           [subst_expr(a, m) for a in e.args], nid=e.nid,
                           span=e.span)
    if isinstance(e, EFuncCall):
        return EFuncCall(subst_expr(e.callee, m),
                         [subst_expr(a, m) for a in e.args], nid=e.nid,
                         span=e.span)
    if isinstance(e, ENew):
        return ENew(e.cname, [subst_expr(a, m) for a in e.args], nid=e.nid,
                    span=e.span)
    if isinstance(e, ECast):
        return ECast(e.rtype, subst_expr(e.expr, m), nid=e.nid, span=e.span)
    if isinstance(e, EClosure):
        return EClosure(e.fname, [subst_expr(c, m) for c in e.captures],
                        nid=e.nid, span=e.span)
    if isinstance(e, EFieldAssign):
        return EFieldAssign(subst_expr(e.obj, m), e.fname,
                            subst_expr(e.rhs, m), nid=e.nid, span=e.span)
    if isinstance(e, ECtxApply):
        k, m2 = subst_ctx(e.ctx, m)
        return ECtxApply(k, subst_expr(e.expr, m2), nid=e.nid, span=e.span)
    if isinstance(e, EWhileRun):
        m2 = {k: v for k, v in m.items()
              if k not in {p.phi for p in e.phis}}
        return EWhileRun(subst_expr(e.cond_focus, m2), list(e.cur_vals),
                         e.phis, subst_expr(e.cond_orig, m2),
                         subst_ctx(e.body_ctx, m2)[0],
                         subst_expr(e.cont, m2), nid=e.nid)
    raise TypeError(e)


def subst_ctx(k: Ctx, m: dict):
    """Substitute into a context; returns the new context and the map still
    live at its hole (binders shadow)."""
    if isinstance(k, KHole):
        return k, m
    if isinstance(k, KLetIn):
        e = subst_expr(k.expr, m)
        m2 = {n: v for n, v in m.items() if n != k.name}
        rest, m3 = subst_ctx(k.rest, m2)
        return KLetIn(k.name, e, rest, nid=k.nid, span=k.span), m3
    if isinstance(k, KLetIf):
        cond = subst_expr(k.cond, m)
        k1, _ = subst_ctx(k.then_ctx, m)
        k2, _ = subst_ctx(k.else_ctx, m)
        # a phi slot reads a name at its branch's end scope: names the
        # branch rebinds shadow the enclosing substitution
        b1 = ctx_binders(k.then_ctx)
        b2 = ctx_binders(k.else_ctx)
        ml = {n: v for n, v in m.items() if n not in b1}
        mr = {n: v for n, v in m.items() if n not in b2}
        lefts = [subst_expr(x, ml) for x in k.left_exprs]
        rights = [subst_expr(x, mr) for x in k.right_exprs]
        m2 = {n: v for n, v in m.items()
              if n not in {p.phi for p in k.phis}}
        rest, m3 = subst_ctx(k.rest, m2)
        return KLetIf(k.phis, cond, k1, k2, rest, lefts, rights,
                      nid=k.nid, span=k.span), m3
    if isinstance(k, KLetWhile):
        inits = [subst_expr(i, m) for i in k.init_exprs]
        m2 = {n: v for n, v in m.items()
              if n not in {p.phi for p in k.phis}}
        cond = subst_expr(k.cond, m2)
        body, _ = subst_ctx(k.body_ctx, m2)
        rest, m3 = subst_ctx(k.rest, m2)
        return KLetWhile(k.phis, cond, body, rest, inits, nid=k.nid,
                         span=k.span), m3
    raise TypeError(k)


def ctx_binders(k: Ctx) -> set:
    out: set = set()
    stack = [k]
    while stack:
        c = stack.pop()
        if isinstance(c, KHole):
            continue
        if isinstance(c, KLetIn):
            out.add(c.name)
            stack.append(c.rest)
        elif isinstance(c, KLetIf):
            out |= {p.phi for p in c.phis}
            stack.extend([c.then_ctx, c.else_ctx, c.rest])
        elif isinstance(c, KLetWhile):
            out |= {p.phi for p in c.phis}
            stack.extend([c.body_ctx, c.rest])
    return out


def mk_ctxapply(k: Ctx, e: Expr) -> Expr:
    if isinstance(k, KHole):
        return e
    return ECtxApply(k, e, nid=0)


# ---------------------------------------------------------------------------
# The machine


class FrscMachine(ExprStepper):
    def initial_top(self) -> FrscConfig:
        if self.t.ssa.top is None:
            raise ValueError("program has no top-level body")
        return FrscConfig(self.t.initial_heap(), self.t.ssa.top)

    def initial_call(self, fname: str, args: list) -> FrscConfig:
        return FrscConfig(*self.t.entry_call(fname, args))

    def step(self, c: FrscConfig):
        try:
            v = val_of(c.focus)
            if v is not MISSING:
                return ("terminal", v)
            r = self._step_expr(c, c.focus)
            assert r[0] == "new", r
            return ("ok", FrscConfig(c.heap, r[1], c.steps + 1))
        except StuckError as e:
            return ("stuck", e.reason)

    # -- expression stepping ----------------------------------------------------

    def _step_expr(self, c: FrscConfig, e: Expr):
        if isinstance(e, ECtxApply):
            return self._step_ctxapply(c, e)
        if isinstance(e, EWhileRun):
            return self._step_whilerun(c, e)
        if isinstance(e, ECast):
            r = self._step_children(c, [e.expr], lambda ch: ECast(
                e.rtype, ch[0], nid=e.nid, span=e.span))
            if r[0] != "vals":
                return r
            v = r[1][0]
            self._check_cast(c, e.rtype, v)
            return ("new", mk_val(v))
        if isinstance(e, EVar):
            raise StuckError(f"free variable {e.name!r} in focus")
        return self._step_shared(c, e)

    def _enter(self, c, code, frame):
        return ("new", subst_expr(code.body, {n: mk_val(v)
                                              for n, v in frame.items()}))

    def _invoke(self, c, sm, vo, argv):
        if not self._precond_holds(c, sm, vo, argv):
            raise StuckError(
                f"precondition of {sm.name} does not hold at call")
        return super()._invoke(c, sm, vo, argv)

    # -- contexts ------------------------------------------------------------

    def _step_ctxapply(self, c: FrscConfig, e: ECtxApply):
        k = e.ctx
        if isinstance(k, KHole):
            return ("new", e.expr)
        if isinstance(k, KLetIn):
            v = val_of(k.expr)
            if v is MISSING:
                r = self._step_expr(c, k.expr)
                return ("new", ECtxApply(
                    KLetIn(k.name, r[1], k.rest, nid=k.nid, span=k.span),
                    e.expr, nid=e.nid, span=e.span))
            return ("new", subst_expr(mk_ctxapply(k.rest, e.expr),
                                      {k.name: mk_val(v)}))
        if isinstance(k, KLetIf):
            v = val_of(k.cond)
            if v is MISSING:
                r = self._step_expr(c, k.cond)
                return ("new", ECtxApply(
                    KLetIf(k.phis, r[1], k.then_ctx, k.else_ctx, k.rest,
                           k.left_exprs, k.right_exprs,
                           nid=k.nid, span=k.span), e.expr, nid=e.nid,
                    span=e.span))
            if v is True:
                branch = k.then_ctx
                names = {p.phi: x for p, x in zip(k.phis, k.left_exprs)}
            elif v is False:
                branch = k.else_ctx
                names = {p.phi: x for p, x in zip(k.phis, k.right_exprs)}
            else:
                raise StuckError("conditional on a non-boolean")
            cont = subst_expr(mk_ctxapply(k.rest, e.expr), names)
            return ("new", mk_ctxapply(branch, cont))
        if isinstance(k, KLetWhile):
            vals = []
            for i in k.init_exprs:
                v = val_of(i)
                if v is MISSING:
                    raise StuckError("loop entered before its inputs were"
                                     " bound")
                vals.append(v)
            cond = subst_expr(k.cond, {p.phi: mk_val(v)
                                       for p, v in zip(k.phis, vals)})
            cont = mk_ctxapply(k.rest, e.expr)
            return ("new", EWhileRun(cond, vals, k.phis, k.cond, k.body_ctx,
                                     cont, nid=0))
        raise TypeError(k)

    def _step_whilerun(self, c: FrscConfig, e: EWhileRun):
        v = val_of(e.cond_focus)
        if v is MISSING:
            r = self._step_expr(c, e.cond_focus)
            return ("new", EWhileRun(r[1], e.cur_vals, e.phis, e.cond_orig,
                                     e.body_ctx, e.cont, nid=0))
        phim = {p.phi: mk_val(val) for p, val in zip(e.phis, e.cur_vals)}
        if v is True:
            body, _ = subst_ctx(e.body_ctx, phim)
            inner = ECtxApply(
                KLetWhile(e.phis, e.cond_orig, e.body_ctx,
                          KHole(nid=0),
                          [EVar(p.next, nid=0) for p in e.phis], nid=0),
                e.cont, nid=0)
            return ("new", mk_ctxapply(body, inner))
        if v is False:
            return ("new", subst_expr(e.cont, phim))
        raise StuckError("loop condition is not a boolean")

    # -- checked casts and preconditions --------------------------------------

    def _check_cast(self, c: FrscConfig, rt: RType, v: Value):
        t = rt
        while isinstance(t, RExists):
            t = t.body  # inferred casts are existential-free in practice
        if not isinstance(t, RBase):
            raise StuckError("cast to a non-base type")
        base = t.base
        if isinstance(base, BClass):
            obj = deref(c.heap, v, HObj)
            if obj is None:
                raise StuckError(f"cast to {base.name} of a non-object")
            if not self.t.classes.is_subclass(obj.cname, base.name):
                raise StuckError(
                    f"cast failure: {obj.cname} is not a subclass of"
                    f" {base.name}")
            for decl in reversed(self.t.classes.chain(base.name)):
                if not eval_pred(decl.invariant, {"this": v}, c.heap,
                                 self.t.classes):
                    raise StuckError(
                        f"cast failure: invariant of {decl.name} does not"
                        " hold")
        elif isinstance(base, BPrim):
            tag = {"number": "number", "bool": "boolean", "string": "string",
                   "undefined": "undefined", "null": "object"}[base.name]
            if type_tag(v) != tag:
                raise StuckError(f"cast failure: value is not {base.name}")
        elif isinstance(base, BArr):
            if deref(c.heap, v, HArr) is None:
                raise StuckError("cast failure: value is not an array")
        if t.pred is not None:
            if not eval_pred(t.pred, {"v": v}, c.heap, self.t.classes):
                raise StuckError("cast failure: refinement does not hold")
        return

    def _precond_holds(self, c: FrscConfig, sm, vo, argv) -> bool:
        p = sm.decl.precond
        if p == P_TRUE or p is None:
            return True
        env = {n: v for n, v in zip(sm.params, argv)}
        env["this"] = vo
        return eval_pred(p, env, c.heap, self.t.classes)
