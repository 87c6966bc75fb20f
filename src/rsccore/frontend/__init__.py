"""Frontend driver: text -> parsed, desugared, type-resolved Program."""

from __future__ import annotations

from typing import Optional

from ..syntax import (
    BArr, BVar, Body, ClassDecl, ECast, FieldDecl, FuncDecl, MethodDecl,
    NO_SPAN, P_TRUE, Program, R_UNDEF, RBase, RExists, RFun, RInter, RType,
    SourceSpan, TVar, TypeAliasDecl, pred_subst, type_subst, walk_tree,
)
from .desugar import (hoist_stmts, lift_nested, merge_redeclarations, to_body, wrap_global_fn_refs)
from .lexer import LexError
from .parser import (
    NestedFunc, ParseError, Parser, RawFunc, reset_tmp_counter,
)
from .prelude import BUILTIN_NAMES, load_prelude, raw_prelude_aliases
from .types_parser import ResolveError, TypeParseError, TypeResolver


__all__ = [
    "parse_program", "load_prelude", "FrontendError", "LexError",
    "ParseError", "TypeParseError", "ResolveError", "parse_annotation_text",
]


class FrontendError(Exception):
    def __init__(self, errors: list):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


def parse_annotation_text(text: str, span: SourceSpan = NO_SPAN):
    from .types_parser import parse_annotation
    return parse_annotation(text, span)


def _collect_tyvars(sig: RFun) -> tuple:
    """Explicit type variables plus free base variables, in first-use order."""
    order: list[str] = list(sig.tyvars)

    def visit(t):
        if isinstance(t, RBase):
            if isinstance(t.base, BVar) and t.base.name not in order:
                order.append(t.base.name)
            if isinstance(t.base, BArr):
                visit(t.base.elem)
        elif isinstance(t, RExists):
            visit(t.bound)
            visit(t.body)
        elif isinstance(t, RFun):
            for _, pt in t.params:
                visit(pt)
            visit(t.ret)
        elif isinstance(t, RInter):
            for c in t.conjuncts:
                visit(c)

    for _, pt in sig.params:
        visit(pt)
    visit(sig.ret)
    return tuple(order)


def _rename_sig(sig: RFun, names: list[str], span: SourceSpan) -> RFun:
    """Rename annotation parameter names to declaration parameter names
    positionally, keeping dependent references consistent."""
    if len(sig.params) > len(names):
        raise ResolveError(
            f"annotation has {len(sig.params)} parameters but the function"
            f" declares {len(names)}", span)
    out_params = []
    ren: dict = {}
    for i, (old, pt) in enumerate(sig.params):
        new = names[i]
        pt = type_subst(pt, ren) if ren else pt
        out_params.append((new, pt))
        if old != new:
            ren[old] = TVar(new)
    ret = type_subst(sig.ret, ren) if ren and sig.ret is not None else sig.ret
    precond = sig.precond
    if ren and precond != P_TRUE:
        precond = pred_subst(precond, ren)
    return RFun(tuple(out_params), ret, sig.tyvars, precond)


def _distinct_params(params: list) -> None:
    """Reject a parameter name that repeats; `params` holds (name, span)
    pairs and the error points at the repetition."""
    seen: set = set()
    for name, span in params:
        if name in seen:
            raise ResolveError(f"duplicate parameter {name!r}", span)
        seen.add(name)


def _build_signature(raw: RawFunc, resolver: TypeResolver,
                     span: SourceSpan) -> Optional[RType]:
    _distinct_params([(p.name, p.span) for p in raw.params])
    names = [p.name for p in raw.params]
    if raw.annot_sig is not None:
        sig = resolver.resolve(raw.annot_sig, span)
        if isinstance(sig, RInter):
            sig = RInter(tuple(
                _with_tyvars(_rename_sig(c, names, span)) for c in sig.conjuncts))
        elif isinstance(sig, RFun):
            sig = _with_tyvars(_rename_sig(sig, names, span))
        else:
            raise ResolveError("function annotation must be a function type",
                               span)
        return sig
    if all(p.rtype is None for p in raw.params) and raw.ret is None:
        return None
    params = []
    for p in raw.params:
        if p.rtype is None:
            raise ResolveError(
                f"parameter {p.name!r} needs a type (annotate all parameters"
                " or none)", p.span)
        params.append((p.name, resolver.resolve(p.rtype, p.span)))
    ret = resolver.resolve(raw.ret, span) if raw.ret is not None else None
    return _with_tyvars(RFun(tuple(params), ret))


def _with_tyvars(sig: RFun) -> RFun:
    return RFun(sig.params, sig.ret, _collect_tyvars(sig), sig.precond)


def _finish_body(stmts: list, span: SourceSpan, result: str = "undefined",
                 params: tuple = ()) -> Body:
    for s in stmts:
        for n in walk_tree(s):
            if isinstance(n, NestedFunc):
                raise ParseError(
                    "function declarations are only supported at function"
                    " body top level", n.span)
    stmts = merge_redeclarations(hoist_stmts(stmts), set(params))
    return to_body(stmts, span, result)


def parse_program(text: str, fname: str = "<input>") -> Program:
    """Parse, desugar and resolve one source file."""
    reset_tmp_counter()
    raw = Parser(text, fname).parse_program()

    aliases = dict(raw_prelude_aliases())
    for a in raw.aliases:
        if a.name in aliases:
            raise ResolveError(f"duplicate type alias {a.name!r}", a.span)
        aliases[a.name] = TypeAliasDecl(a.name, a.params, a.body, a.span)
    class_names = {"Object"} | {c.name for c in raw.classes}
    seen_classes: set = set()
    for c in raw.classes:
        if c.name in seen_classes or c.name == "Object":
            raise ResolveError(f"duplicate class {c.name!r}", c.span)
        seen_classes.add(c.name)
    resolver = TypeResolver(aliases, class_names)

    def resolve_casts(stmts: list):
        for n in walk_tree(stmts):
            if isinstance(n, ECast):
                n.rtype = resolver.resolve(n.rtype, n.span)

    # validate alias bodies eagerly (cycles, arity, unknown names)
    for a in raw.aliases:
        resolver.resolve(aliases[a.name].body, a.span,
                         tyvars=set(a.params))

    # lift nested functions (also from the top-level body)
    globals_ = {f.name for f in raw.functions} | {g.name for g in raw.ghosts} \
        | set(BUILTIN_NAMES) | class_names
    lifted: list[RawFunc] = []
    for f in raw.functions:
        lift_nested(f, globals_, lifted)
    top_holder = RawFunc("<top>", [], None, None, raw.top, NO_SPAN)
    lift_nested(top_holder, globals_, lifted)
    raw.top = top_holder.stmts
    all_raw_funcs = raw.functions + lifted

    fn_names = {f.name for f in all_raw_funcs} | {g.name for g in raw.ghosts}
    for f in all_raw_funcs:
        wrap_global_fn_refs(f.stmts, fn_names, [p.name for p in f.params])
    wrap_global_fn_refs(raw.top, fn_names)

    functions: list[FuncDecl] = []
    seen_fns: set = set()
    for f in all_raw_funcs:
        if f.name in seen_fns:
            raise ResolveError(f"duplicate function {f.name!r}", f.span)
        seen_fns.add(f.name)
        sig = _build_signature(f, resolver, f.span)
        resolve_casts(f.stmts)
        body = _finish_body(f.stmts, f.span,
                            params=tuple(p.name for p in f.params))
        functions.append(FuncDecl(f.name, [p.name for p in f.params], sig,
                                  body, f.span,
                                  captures=getattr(f, "captures", [])))
    for g in raw.ghosts:
        if g.name in seen_fns:
            raise ResolveError(f"duplicate function {g.name!r}", g.span)
        seen_fns.add(g.name)
        sig = resolver.resolve(g.sig, g.span)
        _distinct_params([(n, g.span) for n, _ in sig.params])
        sig = _with_tyvars(sig)
        functions.append(FuncDecl(g.name, [n for n, _ in sig.params], sig,
                                  None, g.span, is_ghost=True))

    classes: list[ClassDecl] = []
    for c in raw.classes:
        fields = []
        seen_fields: set = set()
        for fd in c.fields:
            if fd.name in seen_fields:
                raise ResolveError(
                    f"duplicate field {fd.name!r} in class {c.name}", fd.span)
            seen_fields.add(fd.name)
            fields.append(FieldDecl(fd.mut, fd.name,
                                    resolver.resolve(fd.rtype, fd.span),
                                    fd.span))
        methods = []
        seen_methods: set = set()
        for m in c.methods:
            if m.name in seen_methods:
                raise ResolveError(
                    f"duplicate method {m.name!r} in class {c.name}", m.span)
            seen_methods.add(m.name)
            sig = _build_signature(m, resolver, m.span)
            if sig is None:
                if m.params:
                    raise ResolveError(
                        f"method {c.name}.{m.name} needs parameter type"
                        " annotations", m.span)
                sig = RFun((), None)
            if isinstance(sig, RInter):
                raise ResolveError(
                    "intersection signatures are only supported on"
                    " functions", m.span)
            resolve_casts(m.stmts)
            body = _finish_body(m.stmts, m.span,
                                "this" if m.is_ctor else "undefined",
                                params=tuple(p.name for p in m.params))
            ret = sig.ret if sig.ret is not None else R_UNDEF
            methods.append(MethodDecl(m.name, list(sig.params), sig.precond,
                                      ret, body, sig.tyvars, m.span,
                                      is_ctor=m.is_ctor))
        classes.append(ClassDecl(c.name, c.invariant, c.parent, fields,
                                 methods, c.span))

    resolve_casts(raw.top)
    top = _finish_body(raw.top, NO_SPAN) if raw.top else None
    return Program(aliases, classes, functions, top, fname)
