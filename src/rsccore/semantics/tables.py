"""Static program tables shared by both interpreters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..frontend.prelude import BUILTIN_NAMES
from ..ssa import SsaProgram
from ..syntax import (
    ClassDecl, EFuncCall, EVar, Expr, FieldDecl, MethodDecl, UNDEFINED,
)
from .values import (
    HClassObj, HObj, Heap, StuckError, VLoc, Value, deref, inject_value,
    mk_val,
)


@dataclass
class ClassInfo:
    decl: ClassDecl
    parent: Optional[str]
    fields: list  # FieldDecls, root-to-leaf order
    methods: dict  # name -> the class that defines it
    ctor: Optional[MethodDecl]


class RuntimeTables:
    def __init__(self, ssa: SsaProgram):
        self.ssa = ssa
        self.program = ssa.source
        self.funcs = ssa.functions
        self.classes: dict[str, ClassInfo] = {}
        decls = {c.name: c for c in self.program.classes}
        for name in decls:
            self._build_class(name, decls, [])

    def _build_class(self, name: str, decls: dict, seen: list) -> ClassInfo:
        if name in self.classes:
            return self.classes[name]
        if name in seen:
            raise ValueError(f"inheritance cycle through {name}")
        c = decls[name]
        fields: list[FieldDecl] = []
        methods: dict = {}
        if c.parent and c.parent != "Object":
            if c.parent not in decls:
                raise ValueError(f"unknown parent class {c.parent}")
            pinfo = self._build_class(c.parent, decls, seen + [name])
            fields.extend(pinfo.fields)
            methods.update(pinfo.methods)
        ctor = None
        for m in c.methods:
            if m.is_ctor:
                ctor = m
            else:
                methods[m.name] = name
        fields = fields + list(c.fields)
        info = ClassInfo(c, c.parent, fields, methods, ctor)
        self.classes[name] = info
        return info

    # -- lookups ---------------------------------------------------------------

    def is_builtin(self, name: str) -> bool:
        return name in BUILTIN_NAMES

    def is_global_callee(self, name: str) -> bool:
        return name in BUILTIN_NAMES or name in self.funcs

    def is_subclass(self, sub: str, sup: str) -> bool:
        if sup == "Object":
            return True
        cur: Optional[str] = sub
        while cur is not None:
            if cur == sup:
                return True
            info = self.classes.get(cur)
            cur = info.parent if info else None
        return False

    # The code lookups return the SsaFunc / SsaMethod: its `params` serve
    # both machines, its `body` the functional one, `decl.body` the source.

    def resolve_method(self, heap: Heap, v: Value, mname: str):
        obj = deref(heap, v, HObj)
        if obj is None:
            raise StuckError(f"method call {mname!r} on a non-object")
        info = self.classes.get(obj.cname)
        if info is None or mname not in info.methods:
            raise StuckError(f"unknown method {mname!r} on {obj.cname}")
        return self.ssa.methods[(info.methods[mname], mname)]

    def constructor_of(self, cname: str):
        info = self.classes.get(cname)
        if info is None:
            raise StuckError(f"unknown class {cname!r}")
        if info.ctor is None:
            return None
        return self.ssa.methods[(cname, "constructor")]

    def allocate_object(self, heap: Heap, cname: str) -> VLoc:
        info = self.classes.get(cname)
        if info is None:
            raise StuckError(f"unknown class {cname!r}")
        return heap.alloc(HObj(cname, {f.name: UNDEFINED
                                       for f in info.fields}))

    def initial_heap(self) -> Heap:
        """A heap holding one class object per class, in declaration
        order."""
        heap = Heap()
        locs: dict[str, int] = {}
        for c in self.program.classes:
            parent_loc = locs.get(c.parent) if c.parent else None
            v = heap.alloc(HClassObj(c.name, parent_loc,
                                     [m.name for m in c.methods]))
            locs[c.name] = v.loc
        return heap

    def entry_call(self, fname: str, args: list) -> tuple[Heap, Expr]:
        """The initial heap and the call of `fname` on host values `args`
        (arrays are allocated on that heap)."""
        heap = self.initial_heap()
        call = EFuncCall(EVar(fname, nid=0),
                         [mk_val(inject_value(a, heap)) for a in args],
                         nid=0)
        return heap, call

    def parent_map(self) -> dict:
        return {name: info.parent for name, info in self.classes.items()}
