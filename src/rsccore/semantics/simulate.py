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
`ssa.mk_ctxapply`, so the raw terms are compared as they are, by one
structural rule over the fields `syntax.subtree_fields` names.  The
comparison sees through only what the two sides write differently: a node
that denotes a value is that value, and the one-frame result join
`let r = x in r` the functional machine leaves after a body conditional
is `x`, as the source machine has already returned into the branch.  A
result join is recognized by its name: `r` must be a branch name of a
body conditional's result phi, as `theta.body_ret` recorded it, so the
image `let y = v in y` of a body ending `var y = v; return y;` is not
one.

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
from typing import Optional, get_args

from ..ssa import GlobalSsaEnv, SsaProgram, SsaRules, fold
from ..syntax import (
    Ctx, EConst, ECtxApply, EThis, EVar, EWhileRun, Expr, KHole, KLetIf,
    KLetIn, KLetWhile, SIte, expr_str, subtree_fields,
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
    the source machine aligns at the assignment, one step earlier.
    `joins` holds the branch names of the result joins `theta` recorded,
    the only lets the comparison sees through."""

    def __init__(self, theta: GlobalSsaEnv, tables: RuntimeTables,
                 store: Optional[dict] = None,
                 joins: Optional[frozenset] = None):
        self.theta = theta
        self.t = tables
        self.globals = tables.globals
        self.store = store
        self.joins = frozenset(
            n for _, r1, r2 in theta.body_ret.values() for n in (r1, r2)) \
            if joins is None else joins

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
        return ConfigTranslator(self.theta, self.t, store,
                                self.joins).elements({}, b)

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


def read_spine(elements, joins: frozenset):
    """A spine as the comparison sees it: at the start of a term (the whole
    image, or a running loop's continuation) a result join
    `let r = x in r`, `r` in `joins`, is read as the spine of `x`, as
    `normalize` sees it.  Only a `let` of a name in `joins` at a term
    start looks one element ahead."""
    elements = iter(elements)
    el = next(elements)
    while True:
        if isinstance(el, KLetIn) and el.name in joins:
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


def spines_equal(a, b, joins: frozenset) -> bool:
    """`terms_equal` on two terms given as spines, element by element,
    each without its rest or continuation: False at the first element
    that differs, so the rest of a lazily translated spine is never
    built."""
    for x, y in zip(read_spine(a, joins), read_spine(b, joins)):
        if not terms_equal(x, y, joins, whole=False):
            return False
    return True


def corresponds(tr: ConfigTranslator, ic: IrscConfig,
                fc: FrscConfig) -> bool:
    """Whether source configuration `ic` translates to target `fc`: the
    spines first, then, after a full match, the heaps."""
    try:
        if not spines_equal(tr.spine(ic), spine_of(fc.focus), tr.joins):
            return False
    except TranslateGap:
        return False
    return heaps_equal(ic.heap, fc.heap)


# ---------------------------------------------------------------------------
# Structural comparison


def normalize(e, joins: frozenset):
    """The node `e` stands for in a comparison: a node that denotes a value
    is that value, and a result join `let r = x in r`, `r` in `joins`, is
    `x`.  Shallow: the comparison views each child as it reaches it."""
    while e.__class__ is ECtxApply and e.ctx.__class__ is KLetIn and \
            e.ctx.name in joins and e.ctx.rest.__class__ is KHole and \
            e.expr.__class__ is EVar and e.expr.name == e.ctx.name:
        e = e.ctx.expr
    v = val_of(e)
    return e if v is MISSING or e.__class__ is EConst else mk_val(v)


# the field a term goes on in after a frame or a running loop: followed
# in a loop, so a long chain of lets costs no recursion depth
_CHAIN = {KLetIn: "rest", KLetIf: "rest", KLetWhile: "rest",
          EWhileRun: "cont"}


def _shape(cls: type) -> tuple:
    chain = _CHAIN.get(cls)
    return tuple(n for n in subtree_fields(cls) if n != chain), chain


# each term class: the subtree fields the comparison recurses into, and
# the one it follows in a loop (or None)
_SHAPES = {cls: _shape(cls) for cls in (*get_args(Expr), *get_args(Ctx))}


def terms_equal(a, b, joins: frozenset, whole: bool = True) -> bool:
    """Structural equality of two terms, seen through `normalize`: the
    same class, and every subtree field equal by this rule, which takes
    a list element by element and a leaf that is no node by
    `values_equal`.  Unless `whole`, a frame's rest and a running loop's
    continuation are left out."""
    while a is not b:
        if a.__class__ is list:
            if b.__class__ is not list or len(a) != len(b):
                return False
            for x, y in zip(a, b):
                if x is not y and not terms_equal(x, y, joins):
                    return False
            return True
        if not hasattr(a, "nid"):
            return values_equal(a, b)
        a = normalize(a, joins)
        b = normalize(b, joins)
        if a.__class__ is not b.__class__:
            return False
        fields, chain = _SHAPES[a.__class__]
        for name in fields:
            x, y = getattr(a, name), getattr(b, name)
            if x is not y and not terms_equal(x, y, joins):
                return False
        if chain is None or not whole:
            return True
        a, b = getattr(a, chain), getattr(b, chain)
    return True


def heaps_equal(h1: Heap, h2: Heap) -> bool:
    if set(h1.cells) != set(h2.cells):
        return False
    for loc, o1 in h1.cells.items():
        o2 = h2.cells[loc]
        if type(o1) is not type(o2):
            return False
        if isinstance(o1, HArr):
            if len(o1.elems) != len(o2.elems) or \
                    not all(map(values_equal, o1.elems, o2.elems)):
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
