"""Small-step interpreter for the imperative source language: a store,
stack and heap machine whose focus term is rewritten in place.

Rebuilt (partially evaluated) nodes keep their original node id so the
lockstep matcher can still look up SSA environments; nodes fabricated at
runtime (loop unrollings, value statements) carry node id 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..syntax import (
    BIte, BReturn, BSeq, EArgsLen, ECast, EClosure, EThis, EVar, Expr,
    SAssign, SExprStmt, SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile,
    Stmt, subtree_fields, with_field,
)
from .stepper import ExprStepper, field_object
from .values import Heap, MISSING, StuckError, VClosure, mk_val, val_of


@dataclass
class EHole:
    """Runtime hole marking a call site inside a saved evaluation context."""

    nid: int = 0


@dataclass
class Frame:
    store: dict
    ectx: object  # Body/Expr tree containing one EHole


@dataclass
class IrscConfig:
    store: dict
    stack: list
    heap: Heap
    focus: object  # Body | Expr
    steps: int = 0


def plug(tree, filling):
    """Replace the one EHole in tree by `filling`, rebuilding only the path
    to it: a hole-free subtree comes back as the same object."""
    if isinstance(tree, EHole):
        return filling
    if not hasattr(tree, "nid"):
        return tree
    for name in subtree_fields(type(tree)):
        v = getattr(tree, name)
        if isinstance(v, list):
            nv = [plug(c, filling) for c in v]
            if all(a is b for a, b in zip(nv, v)):
                continue
        else:
            nv = plug(v, filling)
            if nv is v:
                continue
        return with_field(tree, name, nv)
    return tree


class IrscMachine(ExprStepper):
    """One reduction step per call; deterministic."""

    # -- public --------------------------------------------------------------

    def step(self, c: IrscConfig):
        """Returns ("ok", config) | ("terminal", value) | ("stuck", reason)."""
        try:
            return self._step(c)
        except StuckError as e:
            return ("stuck", e.reason)

    def initial_top(self) -> IrscConfig:
        if self.t.program.top is None:
            raise ValueError("program has no top-level body")
        return IrscConfig({}, [], self.t.initial_heap(), self.t.program.top)

    def initial_call(self, fname: str, args: list) -> IrscConfig:
        heap, call = self.t.entry_call(fname, args)
        return IrscConfig({}, [], heap, call)

    # -- dispatch -------------------------------------------------------------

    def _step(self, c: IrscConfig):
        f = c.focus
        if isinstance(f, (BReturn, BSeq, BIte)):
            return self._step_body(c, f)
        # expression focus
        v = val_of(f)
        if v is not MISSING:
            return self._return(c, v)
        return self._finish(c, self._step_expr(c, f))

    def _return(self, c, v):
        if not c.stack:
            return ("terminal", v)
        fr = c.stack[-1]
        return self._ok(c, plug(fr.ectx, mk_val(v)), store=fr.store,
                        stack=c.stack[:-1])

    def _ok(self, c, focus, store=None, stack=None):
        return ("ok", IrscConfig(c.store if store is None else store,
                                 c.stack if stack is None else stack,
                                 c.heap, focus, c.steps + 1))

    def _finish(self, c, r):
        kind = r[0]
        if kind == "new":
            return self._ok(c, r[1])
        if kind == "call":
            _, store, body, holed = r
            return ("ok", IrscConfig(store, c.stack + [Frame(c.store, holed)],
                                     c.heap, body, c.steps + 1))
        raise AssertionError(kind)

    # -- bodies ---------------------------------------------------------------

    def _step_body(self, c: IrscConfig, b):
        if isinstance(b, BReturn):
            v = val_of(b.expr)
            if v is not MISSING:
                return self._return(c, v)
            return self._finish(c, self._wrap(
                self._step_expr(c, b.expr), b, "expr"))
        if isinstance(b, BSeq):
            if isinstance(b.stmt, SSkip):
                return self._ok(c, b.rest)
            return self._finish(c, self._wrap(
                self._step_stmt(c, b.stmt), b, "stmt"))
        if isinstance(b, BIte):
            v = val_of(b.cond)
            if v is not MISSING:
                if v is True:
                    return self._ok(c, b.then_b)
                if v is False:
                    return self._ok(c, b.else_b)
                raise StuckError("conditional on a non-boolean")
            return self._finish(c, self._wrap(
                self._step_expr(c, b.cond), b, "cond"))
        raise AssertionError(b)

    # -- statements -----------------------------------------------------------

    def _step_stmt(self, c: IrscConfig, s: Stmt):
        if isinstance(s, SSeq):
            if isinstance(s.first, SSkip):
                return ("new", s.second)
            return self._wrap(self._step_stmt(c, s.first), s, "first")
        if isinstance(s, SVarDecl):
            v = val_of(s.expr)
            if v is not MISSING:
                c.store[s.name] = v
                return ("new", SSkip(nid=0))
            return self._wrap(self._step_expr(c, s.expr), s, "expr")
        if isinstance(s, SAssign):
            v = val_of(s.expr)
            if v is not MISSING:
                if s.name not in c.store:
                    raise StuckError(f"assignment to unbound {s.name!r}")
                c.store[s.name] = v
                return ("new", SExprStmt(mk_val(v), nid=s.nid))
            return self._wrap(self._step_expr(c, s.expr), s, "expr")
        if isinstance(s, SFieldAssign):
            r = self._step_children(c, s)
            if r[0] != "vals":
                return r
            vo, vr = r[1]
            field_object(c.heap, vo, s.fname, "write").fields[s.fname] = vr
            return ("new", SExprStmt(mk_val(vr), nid=s.nid))
        if isinstance(s, SExprStmt):
            v = val_of(s.expr)
            if v is not MISSING:
                return ("new", SSkip(nid=0))
            return self._wrap(self._step_expr(c, s.expr), s, "expr")
        if isinstance(s, SIte):
            v = val_of(s.cond)
            if v is not MISSING:
                if v is True:
                    return ("new", s.then_s)
                if v is False:
                    return ("new", s.else_s)
                raise StuckError("conditional on a non-boolean")
            return self._wrap(self._step_expr(c, s.cond), s, "cond")
        if isinstance(s, SWhile):
            unrolled = SIte(s.cond,
                            SSeq(s.body, s, nid=0),
                            SSkip(nid=0), nid=0)
            return ("new", unrolled)
        if isinstance(s, SSkip):
            raise AssertionError("skip handled by sequencing")
        raise StuckError(f"cannot execute {type(s).__name__}")

    # -- expressions ----------------------------------------------------------

    def _step_expr(self, c: IrscConfig, e: Expr):
        if isinstance(e, EVar):
            if e.name in c.store:
                return ("new", mk_val(c.store[e.name]))
            raise StuckError(f"unbound variable {e.name!r}")
        if isinstance(e, EThis):
            if "this" not in c.store:
                raise StuckError("this outside a method")
            return ("new", mk_val(c.store["this"]))
        if isinstance(e, EArgsLen):
            if "#argc" not in c.store:
                raise StuckError("arguments.length outside a function")
            return ("new", mk_val(c.store["#argc"]))
        if isinstance(e, ECast):
            r = self._step_children(c, e)
            if r[0] != "vals":
                return r
            # the source machine erases casts once the subject is a value
            return ("new", mk_val(r[1][0]))
        if isinstance(e, EClosure):
            r = self._step_children(c, e)
            if r[0] != "vals":
                return r
            return ("new", mk_val(VClosure(e.fname, tuple(r[1]))))
        return self._step_shared(c, e)

    def _enter(self, c, code, frame):
        return ("call", frame, code.decl.body, EHole())
