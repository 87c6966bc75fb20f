"""Static program tables shared by both interpreters."""

from __future__ import annotations

from ..logic import ClassTable
from ..ssa import SsaProgram
from ..syntax import ClassDecl, EFuncCall, EVar, Expr, UNDEFINED
from .values import (
    HClassObj, HObj, Heap, StuckError, VLoc, Value, deref, inject_value,
    mk_val,
)


class RuntimeTables:
    def __init__(self, ssa: SsaProgram):
        self.ssa = ssa
        self.program = ssa.source
        self.funcs = ssa.functions
        self.classes = ClassTable(self.program)
        self.globals = ssa.globals

    # -- lookups ---------------------------------------------------------------

    # The code lookups return the SsaFunc / SsaMethod: its `params` serve
    # both machines, its `body` the functional one, `decl.body` the source.

    def resolve_method(self, heap: Heap, v: Value, mname: str):
        obj = deref(heap, v, HObj)
        if obj is None:
            raise StuckError(f"method call {mname!r} on a non-object")
        for decl in self.classes.chain(obj.cname):
            if any(m.name == mname and not m.is_ctor for m in decl.methods):
                return self.ssa.methods[(decl.name, mname)]
        raise StuckError(f"unknown method {mname!r} on {obj.cname}")

    def _decl(self, cname: str) -> ClassDecl:
        decl = self.classes.decls.get(cname)
        if decl is None:
            raise StuckError(f"unknown class {cname!r}")
        return decl

    def constructor_of(self, cname: str):
        if not any(m.is_ctor for m in self._decl(cname).methods):
            return None
        return self.ssa.methods[(cname, "constructor")]

    def allocate_object(self, heap: Heap, cname: str) -> VLoc:
        self._decl(cname)
        return heap.alloc(HObj(cname, {f.name: UNDEFINED
                                       for d in self.classes.chain(cname)
                                       for f in d.fields}))

    def initial_heap(self) -> Heap:
        """A heap holding one class object per class, in declaration
        order."""
        heap = Heap()
        for c in self.program.classes:
            heap.alloc(HClassObj(c.name))
        return heap

    def entry_call(self, fname: str, args: list) -> tuple[Heap, Expr]:
        """The initial heap and the call of `fname` on host values `args`
        (arrays are allocated on that heap)."""
        heap = self.initial_heap()
        call = EFuncCall(EVar(fname, nid=0),
                         [mk_val(inject_value(a, heap)) for a in args],
                         nid=0)
        return heap, call
