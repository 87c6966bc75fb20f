"""Phase-two expansion of intersection-typed functions: one clone per
conjunct, with shape-ill-typed statements replaced by dead-code assertions
and arguments.length resolved to the conjunct's arity."""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.prelude import load_prelude
from ..logic import ClassTable
from ..syntax import (
    BClass, Body, EArgsLen, EConst, FuncDecl, P_TRUE, Program, RBase, RFun,
    RInter, TThis, clone_tree, next_node_id, replace_in_tree,
)
from .shapes import ShapeChecker


@dataclass
class OverloadClone:
    base_name: str
    index: int  # 1-based conjunct index
    conjunct: RFun
    decl: FuncDecl

    @property
    def name(self) -> str:
        return self.decl.name


def make_shape_checker(program: Program) -> ShapeChecker:
    prelude = load_prelude()
    fn_shapes: dict = {}
    for f in program.functions:
        if f.signature is not None:
            fn_shapes[f.name] = f.signature
        else:
            fn_shapes[f.name] = ("closure", f.name)
    class_fields: dict = {}
    class_methods: dict = {}
    checker = ShapeChecker(fn_shapes, class_fields, class_methods, prelude)
    ct = ClassTable(program)
    for c in program.classes:
        fields = {}
        for mut, name, ft in ct.fields_of(RBase(BClass(c.name), P_TRUE),
                                          TThis(), False):
            fields[name] = checker.shape_of_type(ft, set())
        class_fields[c.name] = fields
        methods = {}
        for decl in ct.chain(c.name):
            for m in decl.methods:
                if not m.is_ctor:
                    methods[m.name] = m.signature
        class_methods[c.name] = methods
    return checker


def two_phase_expand(fn: FuncDecl, program: Program) -> list:
    """Clones of an intersection-typed function, one per conjunct, each
    shape-checked with ill-typed statements replaced by assert(false)."""
    sig = fn.signature
    if not isinstance(sig, RInter):
        return []
    clones: list[OverloadClone] = []
    for i, conj in enumerate(sig.conjuncts, 1):
        body: Body = clone_tree(fn.body)
        arity = len(conj.params)
        replace_in_tree(body, lambda node, field, c:
                        EConst(arity, span=c.span, nid=next_node_id())
                        if isinstance(c, EArgsLen) else None)
        checker = make_shape_checker(program)
        rigid = set(conj.tyvars)
        env = {}
        for (pname, ptype) in conj.params:
            env[pname] = checker.shape_of_type(ptype, rigid)
        ret_shape = checker.shape_of_type(conj.ret, rigid) \
            if conj.ret is not None else checker.fresh()
        body = checker.check_body(env, body, ret_shape, rigid)
        decl = FuncDecl(f"{fn.name}@{i}", [n for n, _ in conj.params], conj,
                        body, fn.span)
        clones.append(OverloadClone(fn.name, i, conj, decl))
    return clones
