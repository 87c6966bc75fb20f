"""Small-step interpreter for the imperative source language: a store,
stack and heap machine whose focus term is rewritten in place.

Rebuilt (partially evaluated) nodes keep their original node id so the
lockstep matcher can still look up SSA environments; nodes fabricated at
runtime (loop unrollings, value statements) carry node id 0.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from ..syntax import (
    BIte, BReturn, BSeq, EArgsLen, ECast, EClosure, EConst, EFieldRead,
    EFuncCall, EMethodCall, ENew, EThis, EVal, EVar, Expr, SAssign,
    SExprStmt, SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile, Stmt,
    UNDEFINED, subtree_fields,
)
from .tables import RuntimeTables
from .values import (
    HObj, Heap, StuckError, VClosure, VLoc, Value, apply_builtin,
    inject_value,
)

MISSING = object()


@dataclass
class EHole:
    """Runtime hole marking a call site inside a saved evaluation context."""

    nid: int = 0


def val_of(e) -> object:
    if isinstance(e, EVal):
        return e.value
    if isinstance(e, EConst):
        return e.value
    if isinstance(e, EClosure):
        caps = []
        for c in e.captures:
            v = val_of(c)
            if v is MISSING:
                return MISSING
            caps.append(v)
        return VClosure(e.fname, tuple(caps))
    return MISSING


def mk_val(v: Value):
    return EVal(v, nid=0)


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
    """Replace the EHole in tree by `filling`, rebuilding only the path to
    it: a hole-free subtree comes back as the same object."""
    if isinstance(tree, EHole):
        return filling
    if not hasattr(tree, "nid"):
        return tree
    new = None
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
        if new is None:
            new = copy.copy(tree)
        setattr(new, name, nv)
    return tree if new is None else new


class IrscMachine:
    """One reduction step per call; deterministic."""

    def __init__(self, tables: RuntimeTables):
        self.t = tables

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
        heap = Heap()
        self.t.prealloc_class_objects(heap)
        return IrscConfig({}, [], heap, self.t.program.top)

    def initial_call(self, fname: str, args: list) -> IrscConfig:
        heap = Heap()
        self.t.prealloc_class_objects(heap)
        call = EFuncCall(EVar(fname, nid=0),
                         [mk_val(inject_value(a, heap)) for a in args],
                         nid=0)
        return IrscConfig({}, [], heap, call)

    # -- dispatch -------------------------------------------------------------

    def _step(self, c: IrscConfig):
        f = c.focus
        if isinstance(f, (BReturn, BSeq, BIte)):
            return self._step_body(c, f)
        # expression focus
        v = val_of(f)
        if v is not MISSING:
            if not c.stack:
                return ("terminal", v)
            fr = c.stack[-1]
            return self._ok(c, plug(fr.ectx, mk_val(v)), store=fr.store,
                            stack=c.stack[:-1])
        r = self._step_expr(c, f)
        return self._finish(c, r)

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
                if not c.stack:
                    return ("terminal", v)
                fr = c.stack[-1]
                return self._ok(c, plug(fr.ectx, mk_val(v)), store=fr.store,
                                stack=c.stack[:-1])
            r = self._step_expr(c, b.expr)
            return self._finish(c, self._wrap(
                r, lambda e: BReturn(e, nid=b.nid, span=b.span)))
        if isinstance(b, BSeq):
            if isinstance(b.stmt, SSkip):
                return self._ok(c, b.rest)
            r = self._step_stmt(c, b.stmt)
            return self._finish(c, self._wrap(
                r, lambda s: BSeq(s, b.rest, nid=b.nid, span=b.span)))
        if isinstance(b, BIte):
            v = val_of(b.cond)
            if v is not MISSING:
                if v is True:
                    return self._ok(c, b.then_b)
                if v is False:
                    return self._ok(c, b.else_b)
                raise StuckError("conditional on a non-boolean")
            r = self._step_expr(c, b.cond)
            return self._finish(c, self._wrap(
                r, lambda e: BIte(e, b.then_b, b.else_b, nid=b.nid,
                                  span=b.span)))
        raise AssertionError(b)

    # -- statements -----------------------------------------------------------

    def _step_stmt(self, c: IrscConfig, s: Stmt):
        if isinstance(s, SSeq):
            if isinstance(s.first, SSkip):
                return ("new", s.second)
            r = self._step_stmt(c, s.first)
            return self._wrap(
                r, lambda x: SSeq(x, s.second, nid=s.nid, span=s.span))
        if isinstance(s, SVarDecl):
            v = val_of(s.expr)
            if v is not MISSING:
                c.store[s.name] = v
                return ("new", SSkip(nid=0))
            r = self._step_expr(c, s.expr)
            return self._wrap(
                r, lambda e: SVarDecl(s.name, e, nid=s.nid, span=s.span))
        if isinstance(s, SAssign):
            v = val_of(s.expr)
            if v is not MISSING:
                if s.name not in c.store:
                    raise StuckError(f"assignment to unbound {s.name!r}")
                c.store[s.name] = v
                return ("new", SExprStmt(mk_val(v), nid=s.nid))
            r = self._step_expr(c, s.expr)
            return self._wrap(
                r, lambda e: SAssign(s.name, e, nid=s.nid, span=s.span))
        if isinstance(s, SFieldAssign):
            vo = val_of(s.obj)
            if vo is MISSING:
                r = self._step_expr(c, s.obj)
                return self._wrap(
                    r, lambda e: SFieldAssign(e, s.fname, s.rhs, nid=s.nid,
                                              span=s.span))
            vr = val_of(s.rhs)
            if vr is MISSING:
                r = self._step_expr(c, s.rhs)
                return self._wrap(
                    r, lambda e: SFieldAssign(s.obj, s.fname, e, nid=s.nid,
                                              span=s.span))
            self._field_write(c, vo, s.fname, vr)
            return ("new", SExprStmt(mk_val(vr), nid=s.nid))
        if isinstance(s, SExprStmt):
            v = val_of(s.expr)
            if v is not MISSING:
                return ("new", SSkip(nid=0))
            r = self._step_expr(c, s.expr)
            return self._wrap(
                r, lambda e: SExprStmt(e, nid=s.nid, span=s.span))
        if isinstance(s, SIte):
            v = val_of(s.cond)
            if v is not MISSING:
                if v is True:
                    return ("new", s.then_s)
                if v is False:
                    return ("new", s.else_s)
                raise StuckError("conditional on a non-boolean")
            r = self._step_expr(c, s.cond)
            return self._wrap(
                r, lambda e: SIte(e, s.then_s, s.else_s, nid=s.nid,
                                  span=s.span))
        if isinstance(s, SWhile):
            unrolled = SIte(s.cond,
                            SSeq(s.body, s, nid=0),
                            SSkip(nid=0), nid=0)
            return ("new", unrolled)
        if isinstance(s, SSkip):
            raise AssertionError("skip handled by sequencing")
        raise StuckError(f"cannot execute {type(s).__name__}")

    def _field_write(self, c, vo, fname, vr):
        if not isinstance(vo, VLoc) or vo.loc not in c.heap or \
                not isinstance(c.heap[vo.loc], HObj):
            raise StuckError("field write on a non-object")
        obj = c.heap[vo.loc]
        if fname not in obj.fields:
            raise StuckError(f"unknown field {fname!r} on {obj.cname}")
        obj.fields[fname] = vr

    # -- expressions ----------------------------------------------------------

    def _wrap(self, r, rebuild):
        if r[0] == "new":
            return ("new", rebuild(r[1]))
        if r[0] == "call":
            _, store, body, holed = r
            return ("call", store, body, rebuild(holed))
        raise AssertionError(r)

    def _step_children(self, c, children, rebuild):
        vals = []
        for i, ch in enumerate(children):
            v = val_of(ch)
            if v is MISSING:
                r = self._step_expr(c, ch)
                def reb(x, i=i):
                    return rebuild(children[:i] + [x] + children[i + 1:])
                return self._wrap(r, reb)
            vals.append(v)
        return ("vals", vals)

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
        if isinstance(e, EFieldRead):
            r = self._step_children(c, [e.obj], lambda ch: EFieldRead(
                ch[0], e.fname, nid=e.nid, span=e.span))
            if r[0] != "vals":
                return r
            (vo,) = r[1]
            return ("new", mk_val(self._field_read(c, vo, e.fname)))
        if isinstance(e, EMethodCall):
            r = self._step_children(c, [e.obj, *e.args], lambda ch:
                                    EMethodCall(ch[0], e.mname, ch[1:],
                                                nid=e.nid, span=e.span))
            if r[0] != "vals":
                return r
            vo, *argv = r[1]
            mdecl = self.t.resolve_method(c.heap, vo, e.mname)
            store = {n: v for (n, _), v in zip(mdecl.params, argv)}
            for (n, _) in mdecl.params[len(argv):]:
                store[n] = UNDEFINED
            store["this"] = vo
            store["#argc"] = len(argv)
            holed = EHole()
            return ("call", store, mdecl.body, holed)
        if isinstance(e, EFuncCall):
            callee = e.callee
            if isinstance(callee, EVar) and self.t.is_global_callee(callee.name):
                r = self._step_children(c, list(e.args), lambda ch: EFuncCall(
                    callee, ch, nid=e.nid, span=e.span))
                if r[0] != "vals":
                    return r
                return self._dispatch_call(c, callee.name, r[1], e)
            r = self._step_children(c, [callee, *e.args], lambda ch:
                                    EFuncCall(ch[0], ch[1:], nid=e.nid,
                                              span=e.span))
            if r[0] != "vals":
                return r
            vf, *argv = r[1]
            if not isinstance(vf, VClosure):
                raise StuckError("call of a non-function value")
            return self._dispatch_call(c, vf.fname, list(vf.caps) + argv, e,
                                       argc=len(vf.caps) + len(argv))
        if isinstance(e, ENew):
            r = self._step_children(c, list(e.args), lambda ch: ENew(
                e.cname, ch, nid=e.nid, span=e.span))
            if r[0] != "vals":
                return r
            argv = r[1]
            loc = self.t.allocate_object(c.heap, e.cname)
            ctor = self.t.constructor_of(e.cname)
            if ctor is None:
                if argv:
                    raise StuckError(
                        f"class {e.cname} has no constructor but arguments"
                        " were supplied")
                return ("new", mk_val(loc))
            store = {n: v for (n, _), v in zip(ctor.params, argv)}
            for (n, _) in ctor.params[len(argv):]:
                store[n] = UNDEFINED
            store["this"] = loc
            store["#argc"] = len(argv)
            return ("call", store, ctor.body, EHole())
        if isinstance(e, ECast):
            r = self._step_children(c, [e.expr], lambda ch: ECast(
                e.rtype, ch[0], nid=e.nid, span=e.span))
            if r[0] != "vals":
                return r
            # the source machine erases casts once the subject is a value
            return ("new", mk_val(r[1][0]))
        if isinstance(e, EClosure):
            r = self._step_children(c, list(e.captures), lambda ch: EClosure(
                e.fname, ch, nid=e.nid, span=e.span))
            if r[0] != "vals":
                return r
            return ("new", mk_val(VClosure(e.fname, tuple(r[1]))))
        raise StuckError(f"cannot evaluate {type(e).__name__}")

    def _field_read(self, c, vo, fname) -> Value:
        if not isinstance(vo, VLoc) or vo.loc not in c.heap:
            raise StuckError("field read on a non-object")
        obj = c.heap[vo.loc]
        if not isinstance(obj, HObj) or fname not in obj.fields:
            raise StuckError(f"unknown field {fname!r}")
        return obj.fields[fname]

    def _dispatch_call(self, c, fname: str, argv: list, e, argc=None):
        if self.t.is_builtin(fname):
            return ("new", mk_val(apply_builtin(fname, argv, c.heap)))
        fn = self.t.funcs.get(fname)
        if fn is None:
            raise StuckError(f"unknown function {fname!r}")
        if fn.decl.is_ghost:
            return ("new", mk_val(True))
        store = {p: v for p, v in zip(fn.decl.params, argv)}
        for p in fn.decl.params[len(argv):]:
            store[p] = UNDEFINED
        store["#argc"] = len(argv) if argc is None else argc
        return ("call", store, fn.decl.body, EHole())
