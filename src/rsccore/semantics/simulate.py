"""Lockstep forward simulation of the two machines.

After every step of the functional machine, the source machine is advanced
until its configuration translates (via the statically recorded SSA
environments) to the functional machine's configuration again.  A failure
to re-align within a bounded number of source steps is reported as a
divergence: a counterexample for the translation, since the consistency
theorem says it cannot happen.

The translation of a runtime source configuration re-runs the static
translation shape-by-shape: variables become their store values, partially
executed statements become partially reduced contexts, saved stack frames
become enclosing evaluation contexts.  SSA names still awaiting their
binding are left symbolic; free ones are replaced by store values.
Allocation order is deterministic in both machines, so heap locations are
matched identically rather than up to bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ssa import GlobalSsaEnv, SsaProgram, ctx_compose
from ..syntax import (
    BIte, BReturn, BSeq, EArgsLen, ECast, EClosure, EConst, ECtxApply,
    EFieldAssign, EFieldRead, EFuncCall, EMethodCall, ENew, EThis, EVal,
    EVar, Expr, KHole, KLetIf, KLetIn, KLetWhile, PhiIf, SAssign,
    SExprStmt, SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile,
    expr_str,
)
from .frsc import EWhileRun, FrscMachine, ctx_binders, mk_ctxapply
from .irsc import EHole, IrscConfig, IrscMachine, plug
from .tables import RuntimeTables
from .values import (
    HArr, HObj, Heap, MISSING, VClosure, mk_val, val_of, value_str,
    values_equal,
)


class TranslateGap(Exception):
    """The source focus is mid-reduction in a shape the translation does
    not cover; the simulator just keeps stepping the source machine."""


@dataclass
class SimReport:
    status: str  # "ok" | "divergence" | "stuck" | "out-of-fuel"
    frsc_steps: int = 0
    irsc_steps: int = 0
    value: Optional[str] = None
    detail: Optional[str] = None

    def to_json(self) -> dict:
        return {"schema": "rsc/sim/v1", "status": self.status,
                "frsc_steps": self.frsc_steps, "irsc_steps": self.irsc_steps,
                "value": self.value, "detail": self.detail}


class ConfigTranslator:
    def __init__(self, theta: GlobalSsaEnv, tables: RuntimeTables):
        self.theta = theta
        self.t = tables

    # -- expressions -------------------------------------------------------------

    def expr(self, e: Expr, store: dict, bound: set, ren: dict) -> Expr:
        """Rename a (possibly partially evaluated) source expression into
        its functional image: names whose binding is still pending stay
        symbolic (including names rerouted around a dispatched join by the
        rename map), executed ones become store values."""
        v = val_of(e)
        if v is not MISSING:
            return mk_val(v)
        if isinstance(e, EHole):
            return e
        if isinstance(e, EVar):
            env = self.theta.exprs.get(e.nid)
            if env is None or e.name not in env:
                raise TranslateGap(f"no SSA environment for {e.name}")
            ssa_name = env[e.name]
            if e.name in ren:
                return EVar(ren[e.name], nid=0)
            if ssa_name in bound:
                return EVar(ssa_name, nid=0)
            if e.name in store:
                return mk_val(store[e.name])
            raise TranslateGap(f"variable {e.name} missing from the store")
        if isinstance(e, EThis):
            if "this" in store:
                return mk_val(store["this"])
            if "this" in bound:
                return EThis(nid=0)
            raise TranslateGap("this missing from the store")
        if isinstance(e, EArgsLen):
            if "#argc" in store:
                return mk_val(store["#argc"])
            raise TranslateGap("arguments.length outside a call")
        if isinstance(e, EFieldRead):
            return EFieldRead(self.expr(e.obj, store, bound, ren), e.fname,
                              nid=0)
        if isinstance(e, EMethodCall):
            return EMethodCall(self.expr(e.obj, store, bound, ren), e.mname,
                               [self.expr(a, store, bound, ren)
                                for a in e.args], nid=0)
        if isinstance(e, EFuncCall):
            callee = e.callee
            if isinstance(callee, EVar) and \
                    self.t.is_global_callee(callee.name) and \
                    self.theta.exprs.get(callee.nid, {}).get(callee.name) \
                    is None:
                cal = EVar(callee.name, nid=0)
            else:
                cal = self.expr(callee, store, bound, ren)
            return EFuncCall(cal, [self.expr(a, store, bound, ren)
                                   for a in e.args], nid=0)
        if isinstance(e, ENew):
            return ENew(e.cname, [self.expr(a, store, bound, ren)
                                  for a in e.args], nid=0)
        if isinstance(e, ECast):
            return ECast(e.rtype, self.expr(e.expr, store, bound, ren),
                         nid=0)
        if isinstance(e, EClosure):
            return EClosure(e.fname, [self.expr(x, store, bound, ren)
                                      for x in e.captures], nid=0)
        raise TranslateGap(f"cannot translate {type(e).__name__}")

    # -- statements → contexts or expression wrappers -----------------------------

    def stmts(self, s, store: dict, bound: set, cont_fn, ren: dict):
        """Translate a statement (tree) given a thunk producing the
        translated continuation under the names bound (and renames
        rerouted) so far; returns the full functional expression."""
        if isinstance(s, SSkip):
            return cont_fn(bound, ren)
        if isinstance(s, SSeq):
            if s.nid == 0 and isinstance(s.second, SWhile):
                # mid-iteration residual of an unrolled loop
                return self.stmts(
                    s.first, store, bound,
                    lambda b2, r2: self._while_entry(s.second, store, b2,
                                                     cont_fn, r2,
                                                     reentry=True), ren)
            return self.stmts(s.first, store, bound,
                              lambda b2, r2: self.stmts(s.second, store, b2,
                                                        cont_fn, r2), ren)
        if isinstance(s, (SVarDecl, SAssign)):
            name = self.theta.stmt_aux.get(s.nid)
            if name is None:
                raise TranslateGap("untracked assignment")
            rhs = self.expr(s.expr, store, bound, ren)
            rest = cont_fn(bound | {name}, {**ren, s.name: name})
            return mk_ctxapply(KLetIn(name, rhs, KHole(nid=0), nid=0), rest)
        if isinstance(s, SFieldAssign):
            aux = self.theta.stmt_aux.get(s.nid)
            if aux is None:
                raise TranslateGap("untracked field assignment")
            fa = EFieldAssign(self.expr(s.obj, store, bound, ren), s.fname,
                              self.expr(s.rhs, store, bound, ren), nid=0)
            rest = cont_fn(bound | {aux}, ren)
            return mk_ctxapply(KLetIn(aux, fa, KHole(nid=0), nid=0), rest)
        if isinstance(s, SExprStmt):
            aux = self.theta.stmt_aux.get(s.nid)
            if aux is None:
                raise TranslateGap("value statement mid-reduction")
            rhs = self.expr(s.expr, store, bound, ren)
            src = aux.split("#")[0]
            ren2 = {**ren, src: aux} if src != "_" else ren
            rest = cont_fn(bound | {aux}, ren2)
            return mk_ctxapply(KLetIn(aux, rhs, KHole(nid=0), nid=0), rest)
        if isinstance(s, SIte):
            if s.nid == 0:
                # unrolled loop: if (c) { body; while } else skip
                return self._while_running(s, store, bound, cont_fn, ren)
            phis = self.theta.stmt_phis.get(s.nid)
            if phis is None:
                raise TranslateGap("untracked conditional")
            cond = self.expr(s.cond, store, bound, ren)
            k1 = self._stmt_ctx(s.then_s, store, bound, ren)
            k2 = self._stmt_ctx(s.else_s, store, bound, ren)
            b1 = ctx_binders(k1)
            b2 = ctx_binders(k2)
            lefts = [self._phi_slot(p, p.left, bound | b1, store, ren)
                     for p in phis]
            rights = [self._phi_slot(p, p.right, bound | b2, store, ren)
                      for p in phis]
            rest = cont_fn(*_phi_scope(phis, bound, ren))
            return mk_ctxapply(
                KLetIf(phis, cond, k1, k2, KHole(nid=0), lefts, rights,
                       nid=0), rest)
        if isinstance(s, SWhile):
            return self._while_entry(s, store, bound, cont_fn, ren,
                                     reentry=False)
        raise TranslateGap(f"cannot translate {type(s).__name__}")

    def _stmt_ctx(self, s, store, bound, ren):
        """Translate an unstarted statement into a pure context."""
        result = self.stmts(s, store, bound,
                            lambda b, r: _CtxMark(b), ren)
        return _to_ctx(result)

    def _while_phis(self, w: SWhile):
        if not isinstance(w.phis, list):
            raise TranslateGap("loop without SSA annotation")
        return w.phis

    def _while_entry(self, w: SWhile, store, bound, cont_fn, ren,
                     reentry: bool):
        phis = self._while_phis(w)
        inits = []
        for p in phis:
            name = p.next if reentry else p.init
            if p.src in ren:
                inits.append(EVar(ren[p.src], nid=0))
            elif name in bound:
                inits.append(EVar(name, nid=0))
            else:
                src = p.src
                if src not in store:
                    raise TranslateGap(f"loop input {src} missing")
                inits.append(mk_val(store[src]))
        inner, ren2 = _phi_scope(phis, bound, ren)
        cond = self.expr(w.cond, store, inner, ren2)
        body = self._stmt_ctx(w.body, store, inner, ren2)
        rest = cont_fn(inner, ren2)
        return mk_ctxapply(
            KLetWhile(phis, cond, body, KHole(nid=0), inits, nid=0), rest)

    def _while_running(self, s: SIte, store, bound, cont_fn, ren):
        # shape: SIte(cond_res, SSeq(body, while), SSkip) with nid == 0
        if not (isinstance(s.then_s, SSeq) and
                isinstance(s.then_s.second, SWhile) and
                isinstance(s.else_s, SSkip)):
            raise TranslateGap("unrecognized loop residual")
        w = s.then_s.second
        phis = self._while_phis(w)
        cond_focus = self.expr(s.cond, store, bound, ren)
        cur_vals = []
        for p in phis:
            if p.src not in store:
                raise TranslateGap(f"loop value {p.src} missing")
            cur_vals.append(store[p.src])
        inner, ren2 = _phi_scope(phis, bound, ren)
        cond = self.expr(w.cond, store, inner, ren2)
        body = self._stmt_ctx(w.body, store, inner, ren2)
        cont = cont_fn(inner, ren2)
        return EWhileRun(cond_focus, cur_vals, phis, cond, body, cont, nid=0)

    # -- bodies --------------------------------------------------------------

    def _phi_slot(self, p, name: str, bound: set, store: dict, ren: dict):
        if name in bound:
            return EVar(name, nid=0)
        if p.src in ren:
            return EVar(ren[p.src], nid=0)
        if p.src in store:
            return mk_val(store[p.src])
        raise TranslateGap(f"phi input {name} unresolvable")

    def body(self, b, store: dict, bound: set, ren: dict) -> Expr:
        if isinstance(b, BReturn):
            return self.expr(b.expr, store, bound, ren)
        if isinstance(b, BSeq):
            return self.stmts(b.stmt, store, bound,
                              lambda b2, r2: self.body(b.rest, store, b2,
                                                       r2), ren)
        if isinstance(b, BIte):
            names = self.theta.body_ret.get(b.nid)
            if names is None:
                raise TranslateGap("untracked result conditional")
            r, r1, r2 = names
            cond = self.expr(b.cond, store, bound, ren)
            k1 = KLetIn(r1, self.body(b.then_b, store, bound, ren),
                        KHole(nid=0), nid=0)
            k2 = KLetIn(r2, self.body(b.else_b, store, bound, ren),
                        KHole(nid=0), nid=0)
            return mk_ctxapply(
                KLetIf([PhiIf("<ret>", r, r1, r2)], cond, k1, k2,
                       KHole(nid=0),
                       [EVar(r1, nid=0)], [EVar(r2, nid=0)], nid=0),
                EVar(r, nid=0))
        raise TranslateGap(f"cannot translate body {type(b).__name__}")

    # -- whole configurations ---------------------------------------------------

    def config(self, c: IrscConfig) -> Expr:
        cur = self._focus(c.focus, c.store)
        for fr in reversed(c.stack):
            ectx = self._focus(fr.ectx, fr.store)
            cur = plug(ectx, cur)
        return normalize(cur)

    def _focus(self, focus, store) -> Expr:
        if isinstance(focus, (BReturn, BSeq, BIte)):
            return self.body(focus, store, set(), {})
        return self.expr(focus, store, set(), {})


def _phi_scope(phis, bound: set, ren: dict):
    """The bound names and renames past a join or loop header: each phi
    name is bound, and its source variable now reads the phi name."""
    return bound | {p.phi for p in phis}, \
        {**ren, **{p.src: p.phi for p in phis}}


class _CtxMark:
    """Sentinel leaf marking the hole of an unstarted-branch translation."""

    def __init__(self, bound):
        self.bound = bound
        self.nid = 0


def _to_ctx(e):
    """Convert an expression ending in a _CtxMark into a pure context."""
    if isinstance(e, _CtxMark):
        return KHole(nid=0)
    if isinstance(e, ECtxApply):
        return ctx_compose(e.ctx, _to_ctx(e.expr))
    if isinstance(e, EWhileRun):
        raise TranslateGap("running loop inside an unstarted branch")
    raise TranslateGap("branch translation did not end in a hole")


# ---------------------------------------------------------------------------
# Normalization and structural comparison


def normalize(e):
    """Collapse administrative shapes: empty contexts, nested context
    applications, and the result-join wrapper produced by body
    conditionals.

    The output is a fixed point of `normalize`, so no case walks its own
    result again: a normalized context application has neither a hole
    context nor a context application body, so composing a non-hole
    context onto one creates no new redex."""
    if isinstance(e, ECtxApply):
        k = _norm_ctx(e.ctx)
        inner = normalize(e.expr)
        if isinstance(k, KHole):
            return inner
        if isinstance(k, KLetIn) and isinstance(k.rest, KHole) and \
                isinstance(inner, EVar) and inner.name == k.name:
            return k.expr
        if isinstance(inner, ECtxApply):
            return ECtxApply(ctx_compose(k, inner.ctx), inner.expr, nid=0)
        return ECtxApply(k, inner, nid=0)
    if isinstance(e, EWhileRun):
        return EWhileRun(normalize(e.cond_focus), e.cur_vals, e.phis,
                         normalize(e.cond_orig), _norm_ctx(e.body_ctx),
                         normalize(e.cont), nid=0)
    if isinstance(e, EFieldRead):
        return EFieldRead(normalize(e.obj), e.fname, nid=0)
    if isinstance(e, EMethodCall):
        return EMethodCall(normalize(e.obj), e.mname,
                           [normalize(a) for a in e.args], nid=0)
    if isinstance(e, EFuncCall):
        return EFuncCall(normalize(e.callee), [normalize(a) for a in e.args],
                         nid=0)
    if isinstance(e, ENew):
        return ENew(e.cname, [normalize(a) for a in e.args], nid=0)
    if isinstance(e, ECast):
        return ECast(e.rtype, normalize(e.expr), nid=0)
    if isinstance(e, EClosure):
        v = val_of(e)
        if v is not MISSING:
            return mk_val(v)
        return EClosure(e.fname, [normalize(x) for x in e.captures], nid=0)
    if isinstance(e, EFieldAssign):
        return EFieldAssign(normalize(e.obj), e.fname, normalize(e.rhs),
                            nid=0)
    if isinstance(e, EConst):
        return mk_val(e.value)
    return e


def _norm_ctx(k):
    if isinstance(k, KHole):
        return k
    if isinstance(k, KLetIn):
        return KLetIn(k.name, normalize(k.expr), _norm_ctx(k.rest), nid=0)
    if isinstance(k, KLetIf):
        return KLetIf(k.phis, normalize(k.cond), _norm_ctx(k.then_ctx),
                      _norm_ctx(k.else_ctx), _norm_ctx(k.rest),
                      [normalize(x) for x in k.left_exprs],
                      [normalize(x) for x in k.right_exprs], nid=0)
    if isinstance(k, KLetWhile):
        return KLetWhile(k.phis, normalize(k.cond), _norm_ctx(k.body_ctx),
                         _norm_ctx(k.rest),
                         [normalize(i) for i in k.init_exprs], nid=0)
    raise TypeError(k)


def terms_equal(a, b) -> bool:
    if isinstance(a, EVal) and isinstance(b, EVal):
        return _values_eq(a.value, b.value)
    if type(a) is not type(b):
        return False
    if isinstance(a, EVar):
        return a.name == b.name
    if isinstance(a, EThis):
        return True
    if isinstance(a, EFieldRead):
        return a.fname == b.fname and terms_equal(a.obj, b.obj)
    if isinstance(a, EMethodCall):
        return a.mname == b.mname and terms_equal(a.obj, b.obj) and \
            _list_eq(a.args, b.args)
    if isinstance(a, EFuncCall):
        return terms_equal(a.callee, b.callee) and _list_eq(a.args, b.args)
    if isinstance(a, ENew):
        return a.cname == b.cname and _list_eq(a.args, b.args)
    if isinstance(a, ECast):
        return terms_equal(a.expr, b.expr)
    if isinstance(a, EClosure):
        return a.fname == b.fname and _list_eq(a.captures, b.captures)
    if isinstance(a, EFieldAssign):
        return a.fname == b.fname and terms_equal(a.obj, b.obj) and \
            terms_equal(a.rhs, b.rhs)
    if isinstance(a, ECtxApply):
        return ctxs_equal(a.ctx, b.ctx) and terms_equal(a.expr, b.expr)
    if isinstance(a, EWhileRun):
        return (terms_equal(a.cond_focus, b.cond_focus) and
                _vals_list_eq(a.cur_vals, b.cur_vals) and
                _phis_eq(a.phis, b.phis) and
                terms_equal(a.cond_orig, b.cond_orig) and
                ctxs_equal(a.body_ctx, b.body_ctx) and
                terms_equal(a.cont, b.cont))
    if isinstance(a, EArgsLen):
        return True
    return False


def ctxs_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, KHole):
        return True
    if isinstance(a, KLetIn):
        return a.name == b.name and terms_equal(a.expr, b.expr) and \
            ctxs_equal(a.rest, b.rest)
    if isinstance(a, KLetIf):
        return (_phis_eq(a.phis, b.phis) and terms_equal(a.cond, b.cond) and
                ctxs_equal(a.then_ctx, b.then_ctx) and
                ctxs_equal(a.else_ctx, b.else_ctx) and
                ctxs_equal(a.rest, b.rest) and
                _list_eq(a.left_exprs, b.left_exprs) and
                _list_eq(a.right_exprs, b.right_exprs))
    if isinstance(a, KLetWhile):
        return (_phis_eq(a.phis, b.phis) and terms_equal(a.cond, b.cond) and
                ctxs_equal(a.body_ctx, b.body_ctx) and
                ctxs_equal(a.rest, b.rest) and
                _list_eq(a.init_exprs, b.init_exprs))
    return False


def _phis_eq(a, b) -> bool:
    if len(a) != len(b):
        return False
    for p, q in zip(a, b):
        if type(p) is not type(q):
            return False
        if isinstance(p, PhiIf):
            if p.phi != q.phi:
                return False
        else:
            if (p.phi, p.next) != (q.phi, q.next):
                return False
    return True


def _list_eq(a, b) -> bool:
    return len(a) == len(b) and all(terms_equal(x, y) for x, y in zip(a, b))


def _vals_list_eq(a, b) -> bool:
    return len(a) == len(b) and all(_values_eq(x, y) for x, y in zip(a, b))


def _values_eq(a, b) -> bool:
    if isinstance(a, VClosure) and isinstance(b, VClosure):
        return a.fname == b.fname and _vals_list_eq(list(a.caps),
                                                    list(b.caps))
    return values_equal(a, b)


def heaps_equal(h1: Heap, h2: Heap) -> bool:
    if set(h1.cells) != set(h2.cells):
        return False
    for loc, o1 in h1.cells.items():
        o2 = h2.cells[loc]
        if type(o1) is not type(o2):
            return False
        if isinstance(o1, HArr):
            if not _vals_list_eq(o1.elems, o2.elems):
                return False
        elif isinstance(o1, HObj):
            if o1.cname != o2.cname or set(o1.fields) != set(o2.fields):
                return False
            for f, v in o1.fields.items():
                if not _values_eq(v, o2.fields[f]):
                    return False
        else:
            if o1.cname != o2.cname:
                return False
    return True


# ---------------------------------------------------------------------------
# The simulation loop


def simulate(ssa_prog: SsaProgram, theta: GlobalSsaEnv,
             entry: Optional[str] = None, args: Optional[list] = None,
             fuel: int = 10_000, catchup: int = 200) -> SimReport:
    tables = RuntimeTables(ssa_prog)
    irsc = IrscMachine(tables)
    frsc = FrscMachine(tables)
    tr = ConfigTranslator(theta, tables)

    if entry is None:
        ic = irsc.initial_top()
        fc = frsc.initial_top()
    else:
        ic = irsc.initial_call(entry, args or [])
        fc = frsc.initial_call(entry, args or [])

    def aligned(target) -> bool:
        try:
            image = tr.config(ic)
        except TranslateGap:
            return False
        return terms_equal(image, target) and \
            heaps_equal(ic.heap, fc.heap)

    if not aligned(normalize(fc.focus)):
        return SimReport("divergence", 0, 0,
                         detail="initial configurations do not correspond")

    fsteps = isteps = 0
    for _ in range(fuel):
        r = frsc.step(fc)
        if r[0] == "terminal":
            # drain the source machine to its terminal value
            for _ in range(catchup):
                ri = irsc.step(ic)
                if ri[0] == "terminal":
                    if _values_eq(ri[1], r[1]):
                        return SimReport("ok", fsteps, isteps,
                                         value=value_str(r[1], fc.heap))
                    return SimReport(
                        "divergence", fsteps, isteps,
                        detail=f"terminal values differ:"
                               f" {value_str(ri[1], ic.heap)} vs"
                               f" {value_str(r[1], fc.heap)}")
                if ri[0] == "stuck":
                    return SimReport("divergence", fsteps, isteps,
                                     detail=f"source machine stuck after"
                                            f" target finished: {ri[1]}")
                ic = ri[1]
                isteps += 1
            return SimReport("divergence", fsteps, isteps,
                             detail="source machine did not terminate after"
                                    " target finished")
        if r[0] == "stuck":
            return SimReport("stuck", fsteps, isteps,
                             detail=f"target machine stuck: {r[1]}")
        fc = r[1]
        fsteps += 1
        ok = False
        target = normalize(fc.focus)
        for _ in range(catchup):
            if aligned(target):
                ok = True
                break
            ri = irsc.step(ic)
            if ri[0] == "terminal":
                return SimReport("divergence", fsteps, isteps,
                                 detail="source machine finished early")
            if ri[0] == "stuck":
                return SimReport("divergence", fsteps, isteps,
                                 detail=f"source machine stuck: {ri[1]}")
            ic = ri[1]
            isteps += 1
        if not ok:
            return SimReport(
                "divergence", fsteps, isteps,
                detail="no corresponding source configuration within"
                       f" {catchup} steps; target focus:"
                       f" {expr_str(target)[:400]}")
        if fsteps > isteps:
            return SimReport("divergence", fsteps, isteps,
                             detail="target machine took more steps than"
                                    " the source machine")
    return SimReport("out-of-fuel", fsteps, isteps)
