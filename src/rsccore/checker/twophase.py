"""Two-phase checking of intersection-typed (overloaded) functions
(Vekris, Cosman and Jhala, "Trust, but verify", ECOOP 2015).

Phase one clones the function once per conjunct, resolves
`arguments.length` to the conjunct's arity, and checks each clone as a
unit under its conjunct, with the refinement checker's own structural
rules; a value a branch returns must fit the conjunct's result where it
is returned.  The first SSA or structural error that falls on a node of
the clone's body turns the innermost statement or body holding that node
into a dead-code assertion, and the clone is checked again, until no
error falls on its body (one outside it is the real check's to
report).  Phase two is the ordinary refinement check of each
clone, which must prove every such assertion unreachable."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..syntax import (
    BIte, BReturn, Body, EArgsLen, EConst, EFuncCall, EVar, FuncDecl, RInter,
    SAssign, SExprStmt, SFieldAssign, SIte, SSkip, SVarDecl, SWhile, Stmt,
    children, clone_tree, next_node_id, replace_in_tree,
)

# the statements and bodies that phase one may replace; a sequence is not
# one, its parts are
_STMTS = (SVarDecl, SAssign, SFieldAssign, SExprStmt, SIte, SWhile, SSkip)
_BODIES = (BReturn, BIte)


def _assert_call(span) -> EFuncCall:
    return EFuncCall(EVar("assert", span=span, nid=next_node_id()),
                     [EConst(False, span=span, nid=next_node_id())],
                     span=span, nid=next_node_id())


def _assert_false_stmt(s: Stmt) -> Stmt:
    return SExprStmt(_assert_call(s.span), span=s.span, nid=next_node_id())


def _assert_false_return(b: Body) -> Body:
    return BReturn(_assert_call(b.span), span=b.span, nid=next_node_id())


def _holder(node, key: tuple, dead: set, holder):
    """The innermost statement or body of `node`, else `holder`, that holds
    the first node (in pre-order) whose span is `key`; the dead-code
    assertions in `dead` are neither searched nor returned.  None when no
    node has that span."""
    if node.nid in dead:
        return None
    if isinstance(node, _STMTS + _BODIES):
        holder = node
    if (node.span.file, node.span.start, node.span.end) == key:
        return holder
    for c in children(node):
        found = _holder(c, key, dead, holder)
        if found is not None:
            return found
    return None


@dataclass
class OverloadClone:
    base_name: str
    index: int  # 1-based conjunct index
    decl: FuncDecl

    @property
    def name(self) -> str:
        return self.decl.name


def two_phase_expand(fn: FuncDecl, check: Callable) -> list:
    """Clones of an intersection-typed function, one per conjunct, each
    with its ill-typed statements replaced by assert(false).  `check(decl)`
    checks a clone as a unit and returns the spans of its SSA and
    structural errors, in the order they were found."""
    sig = fn.signature
    if not isinstance(sig, RInter):
        return []
    clones: list[OverloadClone] = []
    for i, conj in enumerate(sig.conjuncts, 1):
        decl = FuncDecl(f"{fn.name}@{i}", [n for n, _ in conj.params], conj,
                        clone_tree(fn.body), fn.span)
        arity = len(conj.params)
        replace_in_tree(decl.body, lambda node, field, c:
                        EConst(arity, span=c.span, nid=next_node_id())
                        if isinstance(c, EArgsLen) else None)
        dead: set = set()
        # the statement or body holding the first error on the body
        while (target := next(filter(None, (
                _holder(decl.body, (s.file, s.start, s.end), dead, None)
                for s in check(decl))), None)) is not None:
            new = _assert_false_return(target) \
                if isinstance(target, _BODIES) else _assert_false_stmt(target)
            dead.add(new.nid)
            if target is decl.body:
                decl.body = new
            else:
                replace_in_tree(decl.body,
                                lambda node, field, c: new if c is target
                                else None)
        clones.append(OverloadClone(fn.name, i, decl))
    return clones
