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

Both sides are canonical by construction: the static translation, this
one and the functional machine build every context application through
`ssa.mk_ctxapply`, so the raw terms are compared as they are.  The
comparison sees through only what the two sides write differently: a node
that denotes a value is that value, and the one-frame result join
`let r = x in r` the functional machine leaves after a body conditional
is `x`, as the source machine has already returned into the branch.

A term `k1;...;kn[e]` is read as its spine: the frames k1 ... kn in
evaluation order, a running loop as one more frame whose continuation
follows, then the final expression.  The source configuration is
translated head first, one spine element at a time, and compared with the
target's spine element by element; the comparison stops at the first
element that differs, so a failed alignment attempt translates little
more than the statement under evaluation.  The whole image of a
configuration is the fold of its spine (`ConfigTranslator.config`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ssa import (
    GlobalSsaEnv, SsaProgram, ctx_binders, mk_ctxapply, with_rest,
)
from ..syntax import (
    BIte, BReturn, BSeq, EArgsLen, ECast, EClosure, ECtxApply,
    EFieldAssign, EFieldRead, EFuncCall, EMethodCall, ENew, EThis, EVal,
    EVar, EWhileRun, Expr, KHole, KLetIf, KLetIn, KLetWhile, PhiIf,
    SAssign, SExprStmt, SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile,
    expr_str,
)
from .frsc import FrscConfig, FrscMachine
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

    # -- source foci, head first -------------------------------------------

    def elements(self, s, store: dict, bound: set, ren: dict):
        """The image of a source body, statement or expression, as its
        spine in evaluation order: a context frame per statement (its
        `rest` left empty), a running loop as an `EWhileRun` (its `cont`
        left out: the elements after it are the continuation), then the
        body's final expression.  Each element is translated only when the
        one before it has been consumed; names bound (and renames
        rerouted) so far are threaded from one statement to the next."""
        bound, ren = set(bound), dict(ren)
        todo = [(s, False)]
        while todo:
            s, reentry = todo.pop()
            if isinstance(s, BSeq):
                todo += ((s.rest, False), (s.stmt, False))
            elif isinstance(s, SSeq):
                # an unrolled loop's mid-iteration residual re-enters it
                todo += ((s.second, s.nid == 0), (s.first, False))
            elif isinstance(s, SSkip):
                pass
            elif isinstance(s, (SVarDecl, SAssign)):
                name = self.theta.stmt_aux.get(s.nid)
                if name is None:
                    raise TranslateGap("untracked assignment")
                yield KLetIn(name, self.expr(s.expr, store, bound, ren),
                             _HOLE, nid=0)
                bound.add(name)
                ren[s.name] = name
            elif isinstance(s, SFieldAssign):
                aux = self.theta.stmt_aux.get(s.nid)
                if aux is None:
                    raise TranslateGap("untracked field assignment")
                fa = EFieldAssign(self.expr(s.obj, store, bound, ren),
                                  s.fname,
                                  self.expr(s.rhs, store, bound, ren), nid=0)
                yield KLetIn(aux, fa, _HOLE, nid=0)
                bound.add(aux)
            elif isinstance(s, SExprStmt):
                aux = self.theta.stmt_aux.get(s.nid)
                if aux is None:
                    raise TranslateGap("value statement mid-reduction")
                yield KLetIn(aux, self.expr(s.expr, store, bound, ren),
                             _HOLE, nid=0)
                bound.add(aux)
                src = aux.split("#")[0]
                if src != "_":
                    ren[src] = aux
            elif isinstance(s, SIte) and s.nid == 0:
                # unrolled loop: if (c) { body; while } else skip
                yield self._while_running(s, store, bound, ren)
            elif isinstance(s, SIte):
                yield self._letif(s, store, bound, ren)
            elif isinstance(s, SWhile):
                yield self._while_entry(s, store, bound, ren, reentry)
            elif isinstance(s, BReturn):
                yield self.expr(s.expr, store, bound, ren)
            elif isinstance(s, BIte):
                yield from self._result_join(s, store, bound, ren)
            else:
                yield self.expr(s, store, bound, ren)

    def image(self, s, store: dict, bound: set, ren: dict) -> Expr:
        """The whole image of a source body or expression."""
        return fold(self.elements(s, store, bound, ren))

    def _stmt_ctx(self, s, store, bound, ren):
        """Translate an unstarted statement into a pure context."""
        ctx = KHole(nid=0)
        for k in reversed(list(self.elements(s, store, bound, ren))):
            if not isinstance(k, _FRAMES):
                raise TranslateGap("branch translation did not end in a hole")
            ctx = with_rest(k, ctx)
        return ctx

    def _letif(self, s: SIte, store, bound, ren):
        """The frame of a statement conditional; past it, `bound` and `ren`
        hold the join's scope."""
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
        _enter_scope(phis, bound, ren)
        return KLetIf(phis, cond, k1, k2, _HOLE, lefts, rights, nid=0)

    def _while_phis(self, w: SWhile):
        if not isinstance(w.phis, list):
            raise TranslateGap("loop without SSA annotation")
        return w.phis

    def _loop(self, w: SWhile, phis, store, bound, ren):
        """The condition and body context of loop `w`, under its header's
        scope, which `bound` and `ren` hold from here on."""
        _enter_scope(phis, bound, ren)
        return (self.expr(w.cond, store, bound, ren),
                self._stmt_ctx(w.body, store, bound, ren))

    def _while_entry(self, w: SWhile, store, bound, ren, reentry: bool):
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
        cond, body = self._loop(w, phis, store, bound, ren)
        return KLetWhile(phis, cond, body, _HOLE, inits, nid=0)

    def _while_running(self, s: SIte, store, bound, ren):
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
        cond, body = self._loop(w, phis, store, bound, ren)
        return EWhileRun(cond_focus, cur_vals, phis, cond, body, None,
                         nid=0)

    def _phi_slot(self, p, name: str, bound: set, store: dict, ren: dict):
        if name in bound:
            return EVar(name, nid=0)
        if p.src in ren:
            return EVar(ren[p.src], nid=0)
        if p.src in store:
            return mk_val(store[p.src])
        raise TranslateGap(f"phi input {name} unresolvable")

    def _result_join(self, b: BIte, store, bound, ren):
        names = self.theta.body_ret.get(b.nid)
        if names is None:
            raise TranslateGap("untracked result conditional")
        r, r1, r2 = names
        cond = self.expr(b.cond, store, bound, ren)
        k1 = KLetIn(r1, self.image(b.then_b, store, bound, ren),
                    KHole(nid=0), nid=0)
        k2 = KLetIn(r2, self.image(b.else_b, store, bound, ren),
                    KHole(nid=0), nid=0)
        yield KLetIf([PhiIf("<ret>", r, r1, r2)], cond, k1, k2, _HOLE,
                     [EVar(r1, nid=0)], [EVar(r2, nid=0)], nid=0)
        yield EVar(r, nid=0)

    # -- whole configurations ---------------------------------------------------

    def spine(self, c: IrscConfig):
        """The image of configuration `c`, head first.  A saved frame whose
        image is the bare hole (the entry call, a call in return position)
        adds nothing to it, so the focus is read lazily below such frames.
        From the outermost other frame on, the image is built whole (each
        saved frame plugged with the image of what runs above it) and then
        read back."""
        for i, fr in enumerate(c.stack):
            outer = self.image(fr.ectx, fr.store, set(), {})
            if isinstance(outer, EHole):
                continue
            cur = self.image(c.focus, c.store, set(), {})
            for inner in reversed(c.stack[i + 1:]):
                cur = plug(self.image(inner.ectx, inner.store, set(), {}),
                           cur)
            yield from spine_of(plug(outer, cur))
            return
        yield from self.elements(c.focus, c.store, set(), {})

    def config(self, c: IrscConfig) -> Expr:
        """The whole image of `c`: its spine folded back into one term."""
        return fold(self.spine(c))


_HOLE = KHole(nid=0)  # the empty rest of every frame the translator yields
_FRAMES = (KLetIn, KLetIf, KLetWhile)


def _enter_scope(phis, bound: set, ren: dict):
    """Past a join or loop header, each phi name is bound, and its source
    variable reads the phi name."""
    for p in phis:
        bound.add(p.phi)
        ren[p.src] = p.phi


# ---------------------------------------------------------------------------
# Spines


def spine_of(e: Expr):
    """The spine of a whole term, head first: each frame of a context
    application, a running loop (whose continuation comes next), and the
    final expression.  An application in an application's body position
    (never built, since `mk_ctxapply` composes) would stay one final
    element, as the comparison sees it."""
    while True:
        if isinstance(e, ECtxApply):
            k = e.ctx
            while not isinstance(k, KHole):
                yield k
                k = k.rest
            e = e.expr
            if not isinstance(e, EWhileRun):
                yield e
                return
        if not isinstance(e, EWhileRun):
            yield e
            return
        yield e
        e = e.cont


def fold(elements) -> Expr:
    """The term whose spine is `elements`: the inverse of `spine_of`.  A
    frame's own `rest` and a running loop's own `cont` are ignored."""
    elements = list(elements)
    tail = elements.pop()
    ctx = KHole(nid=0)
    for el in reversed(elements):
        if isinstance(el, EWhileRun):
            tail = EWhileRun(el.cond_focus, el.cur_vals, el.phis,
                             el.cond_orig, el.body_ctx,
                             mk_ctxapply(ctx, tail), nid=0)
            ctx = KHole(nid=0)
        else:
            ctx = with_rest(el, ctx)
    return mk_ctxapply(ctx, tail)


def read_spine(elements):
    """A spine as the comparison sees it: at the start of a term (the whole
    image, or a running loop's continuation) a one-frame result join
    `let r = x in r` is read as the spine of `x`, as `normalize` sees
    it.  Only a `let` at a term start looks one element ahead."""
    elements = iter(elements)
    el = next(elements)
    while True:
        if isinstance(el, KLetIn):
            nxt = next(elements)
            if isinstance(nxt, EVar) and nxt.name == el.name:
                elements = spine_of(el.expr)
                el = next(elements)
                continue
            yield el
            el = nxt
        while isinstance(el, _FRAMES):
            yield el
            el = next(elements)
        yield el
        if not isinstance(el, EWhileRun):
            return
        el = next(elements)


def spines_equal(a, b) -> bool:
    """`terms_equal` on two terms given as spines, element by element:
    False at the first element that differs, so the rest of a lazily
    translated spine is never built."""
    for x, y in zip(read_spine(a), read_spine(b)):
        if isinstance(x, EWhileRun):
            if not (isinstance(y, EWhileRun) and _loop_heads_equal(x, y)):
                return False
        elif isinstance(x, _FRAMES):
            if not frames_equal(x, y):
                return False
        elif not terms_equal(x, y):
            return False
    return True


def corresponds(tr: ConfigTranslator, ic: IrscConfig,
                fc: FrscConfig) -> bool:
    """Whether source configuration `ic` translates to target `fc`: the
    spines first, then, after a full match, the heaps."""
    try:
        if not spines_equal(tr.spine(ic), spine_of(fc.focus)):
            return False
    except TranslateGap:
        return False
    return heaps_equal(ic.heap, fc.heap)


# ---------------------------------------------------------------------------
# Structural comparison


def normalize(e):
    """The node `e` stands for in a comparison: a node that denotes a value
    is that value, and a one-frame result join `let r = x in r` is `x`.
    Shallow: the comparison views each child as it reaches it."""
    while isinstance(e, ECtxApply) and isinstance(e.ctx, KLetIn) and \
            isinstance(e.ctx.rest, KHole) and isinstance(e.expr, EVar) and \
            e.expr.name == e.ctx.name:
        e = e.ctx.expr
    v = val_of(e)
    return e if v is MISSING or isinstance(e, EVal) else mk_val(v)


def terms_equal(a, b) -> bool:
    a = normalize(a)
    b = normalize(b)
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
        return _loop_heads_equal(a, b) and terms_equal(a.cont, b.cont)
    if isinstance(a, EArgsLen):
        return True
    return False


def _loop_heads_equal(a: EWhileRun, b: EWhileRun) -> bool:
    """Two running loops agree, their continuations aside."""
    return (terms_equal(a.cond_focus, b.cond_focus) and
            _vals_list_eq(a.cur_vals, b.cur_vals) and
            _phis_eq(a.phis, b.phis) and
            terms_equal(a.cond_orig, b.cond_orig) and
            ctxs_equal(a.body_ctx, b.body_ctx))


def ctxs_equal(a, b) -> bool:
    while frames_equal(a, b):
        if isinstance(a, KHole):
            return True
        a, b = a.rest, b.rest
    return False


def frames_equal(a, b) -> bool:
    """Two context frames agree, their rests aside."""
    if type(a) is not type(b):
        return False
    if isinstance(a, KHole):
        return True
    if isinstance(a, KLetIn):
        return a.name == b.name and terms_equal(a.expr, b.expr)
    if isinstance(a, KLetIf):
        return (_phis_eq(a.phis, b.phis) and terms_equal(a.cond, b.cond) and
                ctxs_equal(a.then_ctx, b.then_ctx) and
                ctxs_equal(a.else_ctx, b.else_ctx) and
                _list_eq(a.left_exprs, b.left_exprs) and
                _list_eq(a.right_exprs, b.right_exprs))
    if isinstance(a, KLetWhile):
        return (_phis_eq(a.phis, b.phis) and terms_equal(a.cond, b.cond) and
                ctxs_equal(a.body_ctx, b.body_ctx) and
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

    if not corresponds(tr, ic, fc):
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
        for _ in range(catchup):
            if corresponds(tr, ic, fc):
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
                       f" {expr_str(fc.focus)[:400]}")
        if fsteps > isteps:
            return SimReport("divergence", fsteps, isteps,
                             detail="target machine took more steps than"
                                    " the source machine")
    return SimReport("out-of-fuel", fsteps, isteps)
