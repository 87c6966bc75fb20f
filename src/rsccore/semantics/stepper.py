"""The expression forms the SSA translation copies unchanged (field reads
and writes, method and function calls, `new`), stepped by one owner for
both machines under the leftmost-unevaluated-child rule.  A node's
children are stepped in the order of its fields (`subtree_fields`), which
is the source order of every stepped form.

A step returns ("new", e), the expression rewritten to e, or ("call",
frame, body, ctx), enter `body` under the variables `frame` and resume
`ctx` with its result; only the source machine, which keeps a frame stack,
returns the second.  In both the last component is the rewritten
expression, so a parent wraps a child's step by copying itself with that
component in the child's field (`with_field`).
Each machine supplies `_step_expr`, its own forms first, the rest handed to
`_step_shared`, and `_enter`, how a callee's code runs in a frame.
"""

from __future__ import annotations

from ..frontend.prelude import BUILTIN_NAMES
from ..syntax import (
    EFieldAssign, EFieldRead, EFuncCall, EMethodCall, ENew, EVar,
    subtree_fields, with_field,
)
from .tables import RuntimeTables
from .values import (
    HObj, Heap, MISSING, StuckError, VClosure, apply_builtin, call_frame,
    deref, mk_val, val_of,
)


def field_object(heap: Heap, v, fname: str, access: str) -> HObj:
    """The object `v` points at, when it has field `fname`."""
    obj = deref(heap, v, HObj)
    if obj is None:
        raise StuckError(f"field {access} on a non-object")
    if fname not in obj.fields:
        raise StuckError(f"unknown field {fname!r} on {obj.cname}")
    return obj


class ExprStepper:
    def __init__(self, tables: RuntimeTables):
        self.t = tables

    def _step_expr(self, c, e):
        raise NotImplementedError

    def _enter(self, c, code, frame: dict):
        raise NotImplementedError

    def _wrap(self, r, node, name: str):
        """Step `r` of the child in field `name`, as a step of `node`."""
        return (*r[:-1], with_field(node, name, r[-1]))

    def _step_children(self, c, node, names=None):
        """Step the leftmost child of `node` that is not a value yet, in
        the order of its subtree fields (or of `names`), or return
        ("vals", values) when all of them are."""
        vals = []
        for name in names or subtree_fields(type(node)):
            v = getattr(node, name)
            if isinstance(v, list):
                for i, ch in enumerate(v):
                    cv = val_of(ch)
                    if cv is MISSING:
                        r = self._step_expr(c, ch)
                        return (*r[:-1], with_field(
                            node, name, [*v[:i], r[-1], *v[i + 1:]]))
                    vals.append(cv)
            elif hasattr(v, "nid"):
                cv = val_of(v)
                if cv is MISSING:
                    return self._wrap(self._step_expr(c, v), node, name)
                vals.append(cv)
        return ("vals", vals)

    def _step_shared(self, c, e):
        if isinstance(e, EFuncCall):
            callee = e.callee
            if isinstance(callee, EVar) and callee.name in self.t.globals:
                r = self._step_children(c, e, ("args",))
                if r[0] != "vals":
                    return r
                return self._dispatch_call(c, callee.name, r[1])
            r = self._step_children(c, e)
            if r[0] != "vals":
                return r
            vf, *argv = r[1]
            if not isinstance(vf, VClosure):
                raise StuckError("call of a non-function value")
            return self._dispatch_call(c, vf.fname, [*vf.caps, *argv],
                                       len(vf.caps))
        if isinstance(e, EFieldRead):
            r = self._step_children(c, e)
            if r[0] != "vals":
                return r
            obj = field_object(c.heap, r[1][0], e.fname, "read")
            return ("new", mk_val(obj.fields[e.fname]))
        if isinstance(e, EFieldAssign):
            r = self._step_children(c, e)
            if r[0] != "vals":
                return r
            vo, vr = r[1]
            field_object(c.heap, vo, e.fname, "write").fields[e.fname] = vr
            return ("new", mk_val(vr))
        if isinstance(e, EMethodCall):
            r = self._step_children(c, e)
            if r[0] != "vals":
                return r
            vo, *argv = r[1]
            sm = self.t.resolve_method(c.heap, vo, e.mname)
            return self._invoke(c, sm, vo, argv)
        if isinstance(e, ENew):
            r = self._step_children(c, e)
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
            return self._enter(c, ctor, call_frame(ctor.params, argv, loc))
        raise StuckError(f"cannot evaluate {type(e).__name__}")

    def _invoke(self, c, sm, vo, argv: list):
        """Run method `sm` on receiver `vo`."""
        return self._enter(c, sm, call_frame(sm.params, argv, vo))

    def _dispatch_call(self, c, fname: str, argv: list, ncaps: int = 0):
        if fname in BUILTIN_NAMES:
            return ("new", mk_val(apply_builtin(fname, argv, c.heap)))
        fn = self.t.funcs.get(fname)
        if fn is None:
            raise StuckError(f"unknown function {fname!r}")
        if fn.decl.is_ghost:
            return ("new", mk_val(True))
        return self._enter(c, fn, call_frame(fn.params, argv, ncaps=ncaps))
