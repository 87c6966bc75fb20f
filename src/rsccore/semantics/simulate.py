"""Lockstep forward simulation of the two machines.

After every step of the functional machine, the source machine is advanced
until its configuration translates (under the names the static translation
recorded) to the functional machine's configuration again.  A failure to
re-align within a bounded number of source steps is reported as a
divergence: a counterexample for the translation, since the consistency
theorem says it cannot happen.

A runtime source configuration is translated by the static translation's
own rules (`ssa.SsaRules`), with the names it recorded in `theta`, and
with variables resolved at run time: a name whose let is still pending in
the image stays symbolic, an executed one becomes its store value.  Only
the shapes that exist only at run time are translated here: partly
evaluated expressions, a running (unrolled) loop, and saved stack frames,
which become enclosing evaluation contexts.  Allocation order is
deterministic in both machines, so heap locations are matched identically
rather than up to bijection.

Both sides are canonical by construction: the translation rules and the
functional machine build every context application through
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

from ..ssa import GlobalSsaEnv, SsaProgram, SsaRules, fold
from ..syntax import (
    EArgsLen, ECast, EClosure, ECtxApply, EFieldAssign, EFieldRead,
    EConst, EFuncCall, EMethodCall, ENew, EThis, EVar, EWhileRun, Expr,
    KHole, KLetIf, KLetIn, KLetWhile, PhiIf, SIte, expr_str,
)
from .frsc import FrscConfig, FrscMachine
from .irsc import EHole, IrscConfig, IrscMachine, plug
from .tables import RuntimeTables
from .values import (
    HArr, HObj, Heap, MISSING, mk_val, val_of, value_str, values_equal,
)


class TranslateGap(Exception):
    """A variable the translation reads is neither pending in the image nor
    in the store (`this` or `arguments.length` outside a call, say); the
    simulator just keeps stepping the source machine."""


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


class ConfigTranslator(SsaRules):
    """The image of a runtime source configuration under the translation
    rules of `ssa.SsaRules`.  Names are the ones `theta` recorded.  The
    environment holds the names bound so far in the walk, whose lets are
    still pending; any other variable has executed and becomes its value
    in `store`, the store of the frame being translated.  This class keeps
    only the shapes that exist only at run time: partly evaluated
    expressions, a running loop (an unrolled `while`) and saved frames.
    An assignment that has stored its value is a plain value statement:
    the source machine aligns at the assignment, one step earlier."""

    def __init__(self, theta: GlobalSsaEnv, tables: RuntimeTables,
                 store: Optional[dict] = None):
        self.theta = theta
        self.t = tables
        self.globals = tables.globals
        self.store = store

    def nid(self) -> int:
        return 0

    def named(self, table: dict, nid: int, make):
        return table[nid]

    def var(self, env: dict, e: Expr) -> Expr:
        x = e.name if isinstance(e, EVar) else \
            "this" if isinstance(e, EThis) else "#argc"
        return self.slot(env, x, None, None)

    def slot(self, env: dict, x: str, name, span) -> Expr:
        if x in env:
            return EVar(env[x], nid=0)
        if x not in self.store:
            raise TranslateGap(f"{x} missing from the store")
        return mk_val(self.store[x])

    # -- shapes that exist only at run time ------------------------------------

    def expr(self, env: dict, e: Expr) -> Expr:
        """A value stands for itself, as does the hole a saved frame waits
        in; the rest is renamed by the shared rules."""
        v = val_of(e)
        if v is not MISSING:
            return mk_val(v)
        if isinstance(e, EHole):
            return e
        return SsaRules.expr(self, env, e)

    def frames(self, env: dict, s):
        if not (isinstance(s, SIte) and s.nid == 0):
            return (yield from SsaRules.frames(self, env, s))
        # a running loop, unrolled: if (c) { body; while } else skip
        cond_focus = self.expr(env, s.cond)
        phis, head, cond, body = self.loop(env, s.then_s.second)
        yield EWhileRun(cond_focus, [self.store[p.src] for p in phis],
                        phis, cond, body, None, nid=0)
        return head

    # -- whole configurations ---------------------------------------------------

    def walk(self, b, store: dict):
        """The spine of the image of a body or expression run over
        `store`, head first."""
        return ConfigTranslator(self.theta, self.t, store).elements({}, b)

    def spine(self, c: IrscConfig):
        """The image of configuration `c`, head first.  A saved frame whose
        image is the bare hole (the entry call, a call in return position)
        adds nothing to it, so the focus is read lazily below such frames.
        From the outermost other frame on, the image is built whole (each
        saved frame plugged with the image of what runs above it) and then
        read back."""
        for i, fr in enumerate(c.stack):
            outer = fold(self.walk(fr.ectx, fr.store))
            if isinstance(outer, EHole):
                continue
            cur = fold(self.walk(c.focus, c.store))
            for inner in reversed(c.stack[i + 1:]):
                cur = plug(fold(self.walk(inner.ectx, inner.store)), cur)
            yield from spine_of(plug(outer, cur))
            return
        yield from self.walk(c.focus, c.store)

    def config(self, c: IrscConfig) -> Expr:
        """The whole image of `c`: its spine folded back into one term."""
        return fold(self.spine(c))


_FRAMES = (KLetIn, KLetIf, KLetWhile)


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
    return e if v is MISSING or isinstance(e, EConst) else mk_val(v)


def terms_equal(a, b) -> bool:
    a = normalize(a)
    b = normalize(b)
    if type(a) is not type(b):
        return False
    if isinstance(a, EConst):
        return values_equal(a.value, b.value)
    if isinstance(a, EVar):
        return a.name == b.name
    if isinstance(a, (EThis, EArgsLen)):
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
    return len(a) == len(b) and all(map(values_equal, a, b))


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
                if not values_equal(v, o2.fields[f]):
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
                    if values_equal(ri[1], r[1]):
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
