"""Translation of imperative bodies into functional let/letif/letwhile
expressions, producing the global SSA environment used by the checker and
by the lockstep differential harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    BIte, BReturn, BSeq, Body, ClassDecl, Ctx, EArgsLen, ECast, EClosure,
    EConst, ECtxApply, EFieldAssign, EFieldRead, EFuncCall, EMethodCall,
    ENew, EThis, EVal, EVar, EWhileRun, Expr, FuncDecl, KHole, KLetIf,
    KLetIn, KLetWhile,
    MethodDecl, NO_SPAN, PhiIf, PhiWhile, Program, SAssign, SExprStmt,
    SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile, SourceSpan, Stmt,
    assigned_names, expr_children, next_node_id,
)
from .frontend.prelude import BUILTIN_NAMES


class SsaError(Exception):
    def __init__(self, msg: str, span: SourceSpan):
        super().__init__(f"{span}: {msg}")
        self.msg = msg
        self.span = span


SsaEnv = dict  # ordered source-name -> SSA-name


def env_diff(d1: SsaEnv, d2: SsaEnv) -> list[tuple[str, str, str]]:
    """The join operator over translation environments: triples
    (x, x1, x2) for names mapped
    differently by the two environments, in declaration order."""
    if set(d1) != set(d2):
        only = set(d1).symmetric_difference(set(d2))
        raise SsaError(f"environment domain mismatch on {sorted(only)}",
                       NO_SPAN)
    return [(x, d1[x], d2[x]) for x in d1 if d1[x] != d2[x]]


@dataclass
class GlobalSsaEnv:
    """Per-node SSA facts: the environment of each expression node, and
    the names the translation of each statement and body introduced."""

    exprs: dict = field(default_factory=dict)
    # statement node id -> the let-binder name its translation introduced
    stmt_aux: dict = field(default_factory=dict)
    # if-statement node id -> list[PhiIf]
    stmt_phis: dict = field(default_factory=dict)
    # body-ite node id -> (phi, then_name, else_name) for the result join
    body_ret: dict = field(default_factory=dict)


@dataclass
class SsaFunc:
    name: str
    params: list
    body: Optional[Expr]
    decl: FuncDecl


@dataclass
class SsaMethod:
    name: str
    params: list
    body: Expr
    decl: MethodDecl
    cls: ClassDecl


@dataclass
class SsaProgram:
    functions: dict
    methods: dict  # (cname, mname) -> SsaMethod
    top: Optional[Expr]
    source: Program


def ctx_compose(k1: Ctx, k2: Ctx) -> Ctx:
    if isinstance(k1, KHole):
        return k2
    if isinstance(k1, KLetIn):
        return KLetIn(k1.name, k1.expr, ctx_compose(k1.rest, k2),
                      span=k1.span, nid=k1.nid)
    if isinstance(k1, KLetIf):
        return KLetIf(k1.phis, k1.cond, k1.then_ctx, k1.else_ctx,
                      ctx_compose(k1.rest, k2), k1.left_exprs,
                      k1.right_exprs, span=k1.span, nid=k1.nid)
    if isinstance(k1, KLetWhile):
        return KLetWhile(k1.phis, k1.cond, k1.body_ctx,
                         ctx_compose(k1.rest, k2), k1.init_exprs,
                         span=k1.span, nid=k1.nid)
    raise TypeError(k1)


def mk_ctxapply(k: Ctx, e: Expr, span: SourceSpan = NO_SPAN,
                nid: int = 0) -> Expr:
    """The application `k[e]` in its one canonical shape: no application
    has a hole context or an application as its body.  An empty `k`
    leaves `e` as it is, and `k` applied to `k2[e2]` is `(k ; k2)[e2]`.
    Every new application is built here, so the translation and both
    machines agree on how context applications nest."""
    if isinstance(k, KHole):
        return e
    if isinstance(e, ECtxApply):
        return ECtxApply(ctx_compose(k, e.ctx), e.expr, span=span, nid=nid)
    return ECtxApply(k, e, span=span, nid=nid)


# ---------------------------------------------------------------------------
# Capture-avoiding substitution (names are unique per translation, but loop
# bodies re-instantiate their binders on each unrolling)


def subst_expr(e, m: dict):
    if not m:
        return e
    if isinstance(e, EVar):
        return m.get(e.name, e)
    if isinstance(e, EThis):
        return m.get("this", e)
    if isinstance(e, EArgsLen):
        return m.get("#argc", e)
    if isinstance(e, (EConst, EVal)):
        return e
    if isinstance(e, EFieldRead):
        return EFieldRead(subst_expr(e.obj, m), e.fname, nid=e.nid,
                          span=e.span)
    if isinstance(e, EMethodCall):
        return EMethodCall(subst_expr(e.obj, m), e.mname,
                           [subst_expr(a, m) for a in e.args], nid=e.nid,
                           span=e.span)
    if isinstance(e, EFuncCall):
        return EFuncCall(subst_expr(e.callee, m),
                         [subst_expr(a, m) for a in e.args], nid=e.nid,
                         span=e.span)
    if isinstance(e, ENew):
        return ENew(e.cname, [subst_expr(a, m) for a in e.args], nid=e.nid,
                    span=e.span)
    if isinstance(e, ECast):
        return ECast(e.rtype, subst_expr(e.expr, m), nid=e.nid, span=e.span)
    if isinstance(e, EClosure):
        return EClosure(e.fname, [subst_expr(c, m) for c in e.captures],
                        nid=e.nid, span=e.span)
    if isinstance(e, EFieldAssign):
        return EFieldAssign(subst_expr(e.obj, m), e.fname,
                            subst_expr(e.rhs, m), nid=e.nid, span=e.span)
    if isinstance(e, ECtxApply):
        k, m2 = subst_ctx(e.ctx, m)
        return ECtxApply(k, subst_expr(e.expr, m2), nid=e.nid, span=e.span)
    if isinstance(e, EWhileRun):
        m2 = {k: v for k, v in m.items()
              if k not in {p.phi for p in e.phis}}
        return EWhileRun(subst_expr(e.cond_focus, m2), list(e.cur_vals),
                         e.phis, subst_expr(e.cond_orig, m2),
                         subst_ctx(e.body_ctx, m2)[0],
                         subst_expr(e.cont, m2), nid=e.nid)
    raise TypeError(e)


def subst_ctx(k: Ctx, m: dict):
    """Substitute into a context; returns the new context and the map still
    live at its hole (binders shadow)."""
    if isinstance(k, KHole):
        return k, m
    if isinstance(k, KLetIn):
        e = subst_expr(k.expr, m)
        m2 = {n: v for n, v in m.items() if n != k.name}
        rest, m3 = subst_ctx(k.rest, m2)
        return KLetIn(k.name, e, rest, nid=k.nid, span=k.span), m3
    if isinstance(k, KLetIf):
        cond = subst_expr(k.cond, m)
        k1, _ = subst_ctx(k.then_ctx, m)
        k2, _ = subst_ctx(k.else_ctx, m)
        # a phi slot reads a name at its branch's end scope: names the
        # branch rebinds shadow the enclosing substitution
        b1 = ctx_binders(k.then_ctx)
        b2 = ctx_binders(k.else_ctx)
        ml = {n: v for n, v in m.items() if n not in b1}
        mr = {n: v for n, v in m.items() if n not in b2}
        lefts = [subst_expr(x, ml) for x in k.left_exprs]
        rights = [subst_expr(x, mr) for x in k.right_exprs]
        m2 = {n: v for n, v in m.items()
              if n not in {p.phi for p in k.phis}}
        rest, m3 = subst_ctx(k.rest, m2)
        return KLetIf(k.phis, cond, k1, k2, rest, lefts, rights,
                      nid=k.nid, span=k.span), m3
    if isinstance(k, KLetWhile):
        inits = [subst_expr(i, m) for i in k.init_exprs]
        m2 = {n: v for n, v in m.items()
              if n not in {p.phi for p in k.phis}}
        cond = subst_expr(k.cond, m2)
        body, _ = subst_ctx(k.body_ctx, m2)
        rest, m3 = subst_ctx(k.rest, m2)
        return KLetWhile(k.phis, cond, body, rest, inits, nid=k.nid,
                         span=k.span), m3
    raise TypeError(k)


def ctx_binders(k: Ctx) -> set:
    out: set = set()
    stack = [k]
    while stack:
        c = stack.pop()
        if isinstance(c, KHole):
            continue
        if isinstance(c, KLetIn):
            out.add(c.name)
            stack.append(c.rest)
        elif isinstance(c, KLetIf):
            out |= {p.phi for p in c.phis}
            stack.extend([c.then_ctx, c.else_ctx, c.rest])
        elif isinstance(c, KLetWhile):
            out |= {p.phi for p in c.phis}
            stack.extend([c.body_ctx, c.rest])
    return out


class SsaTranslator:
    def __init__(self, program: Program):
        self.program = program
        self.theta = GlobalSsaEnv()
        self.counter = 0
        self.globals = {f.name for f in program.functions} | BUILTIN_NAMES | {"ctor_init"}
        self.errors: list[SsaError] = []

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}#{self.counter}"

    # -- expressions --------------------------------------------------------

    def ssa_expr(self, env: SsaEnv, e: Expr) -> Expr:
        self.theta.exprs[e.nid] = dict(env)
        if isinstance(e, EVar):
            if e.name not in env:
                raise SsaError(f"unbound variable {e.name!r}", e.span)
            return EVar(env[e.name], span=e.span, nid=next_node_id())
        if isinstance(e, EConst):
            return EConst(e.value, span=e.span, nid=next_node_id())
        if isinstance(e, EThis):
            if "this" not in env:
                raise SsaError("this used outside a method", e.span)
            return EThis(span=e.span, nid=next_node_id())
        if isinstance(e, EArgsLen):
            return EArgsLen(span=e.span, nid=next_node_id())
        if isinstance(e, EFieldRead):
            return EFieldRead(self.ssa_expr(env, e.obj), e.fname,
                              span=e.span, nid=next_node_id())
        if isinstance(e, EMethodCall):
            return EMethodCall(self.ssa_expr(env, e.obj), e.mname,
                               [self.ssa_expr(env, a) for a in e.args],
                               span=e.span, nid=next_node_id())
        if isinstance(e, EFuncCall):
            callee = e.callee
            if isinstance(callee, EVar):
                self.theta.exprs[callee.nid] = dict(env)
                if callee.name in env:
                    callee = EVar(env[callee.name], span=callee.span,
                                  nid=next_node_id())
                elif callee.name in self.globals:
                    callee = EVar(callee.name, span=callee.span,
                                  nid=next_node_id())
                else:
                    raise SsaError(f"unbound function {callee.name!r}",
                                   callee.span)
            else:
                callee = self.ssa_expr(env, callee)
            return EFuncCall(callee, [self.ssa_expr(env, a) for a in e.args],
                             span=e.span, nid=next_node_id())
        if isinstance(e, ENew):
            return ENew(e.cname, [self.ssa_expr(env, a) for a in e.args],
                        span=e.span, nid=next_node_id())
        if isinstance(e, ECast):
            return ECast(e.rtype, self.ssa_expr(env, e.expr), span=e.span,
                         nid=next_node_id())
        if isinstance(e, EClosure):
            return EClosure(e.fname,
                            [self.ssa_expr(env, c) for c in e.captures],
                            span=e.span, nid=next_node_id())
        raise SsaError(f"cannot translate {type(e).__name__}", e.span)

    # -- statements ----------------------------------------------------------

    def ssa_stmt(self, env: SsaEnv, s: Stmt) -> tuple[Ctx, SsaEnv]:
        if isinstance(s, SVarDecl):
            e = self.ssa_expr(env, s.expr)
            if s.name in env:
                raise SsaError(f"redeclaration of live variable {s.name!r}",
                               s.span)
            name = self.fresh(s.name)
            self.theta.stmt_aux[s.nid] = name
            out = dict(env)
            out[s.name] = name
            return KLetIn(name, e, KHole(nid=next_node_id()), span=s.span,
                          nid=next_node_id()), out
        if isinstance(s, SAssign):
            if s.name not in env:
                raise SsaError(f"assignment to unbound variable {s.name!r}",
                               s.span)
            e = self.ssa_expr(env, s.expr)
            name = self.fresh(s.name)
            self.theta.stmt_aux[s.nid] = name
            out = dict(env)
            out[s.name] = name
            return KLetIn(name, e, KHole(nid=next_node_id()), span=s.span,
                          nid=next_node_id()), out
        if isinstance(s, SFieldAssign):
            obj = self.ssa_expr(env, s.obj)
            rhs = self.ssa_expr(env, s.rhs)
            fa = EFieldAssign(obj, s.fname, rhs, span=s.span,
                              nid=next_node_id())
            aux = self.fresh("_")
            self.theta.stmt_aux[s.nid] = aux
            return KLetIn(aux, fa, KHole(nid=next_node_id()),
                          span=s.span, nid=next_node_id()), env
        if isinstance(s, SExprStmt):
            e = self.ssa_expr(env, s.expr)
            aux = self.fresh("_")
            self.theta.stmt_aux[s.nid] = aux
            return KLetIn(aux, e, KHole(nid=next_node_id()),
                          span=s.span, nid=next_node_id()), env
        if isinstance(s, SIte):
            cond = self.ssa_expr(env, s.cond)
            k1, env1 = self.ssa_stmt(env, s.then_s)
            k2, env2 = self.ssa_stmt(env, s.else_s)
            # branch-local declarations die at the join
            r1 = {x: env1[x] for x in env}
            r2 = {x: env2[x] for x in env}
            triples = env_diff(r1, r2)
            phis = []
            out = dict(env)
            for x, n1, n2 in triples:
                phi = self.fresh(x)
                out[x] = phi
                phis.append(PhiIf(x, phi, n1, n2))
            self.theta.stmt_phis[s.nid] = phis
            lefts = [EVar(p.left, span=s.span, nid=next_node_id())
                     for p in phis]
            rights = [EVar(p.right, span=s.span, nid=next_node_id())
                      for p in phis]
            return KLetIf(phis, cond, k1, k2, KHole(nid=next_node_id()),
                          lefts, rights, span=s.span,
                          nid=next_node_id()), out
        if isinstance(s, SWhile):
            updated = assigned_names(s.body, set(env))
            updated = [x for x in env if x in updated]
            phi_env = dict(env)
            phis = []
            for x in updated:
                phi_env[x] = self.fresh(x)
            cond = self.ssa_expr(phi_env, s.cond)
            k_body, env1 = self.ssa_stmt(phi_env, s.body)
            for x in updated:
                phis.append(PhiWhile(x, phi_env[x], env[x], env1[x]))
            s.phis = phis  # annotate the source node for display
            inits = [EVar(p.init, span=s.span, nid=next_node_id())
                     for p in phis]
            return KLetWhile(phis, cond, k_body, KHole(nid=next_node_id()),
                             inits, span=s.span, nid=next_node_id()), phi_env
        if isinstance(s, SSeq):
            k1, env1 = self.ssa_stmt(env, s.first)
            k2, env2 = self.ssa_stmt(env1, s.second)
            return ctx_compose(k1, k2), env2
        if isinstance(s, SSkip):
            return KHole(nid=next_node_id()), env
        raise SsaError(f"cannot translate {type(s).__name__}", s.span)

    # -- bodies ---------------------------------------------------------------

    def ssa_body(self, env: SsaEnv, b: Body) -> Expr:
        if isinstance(b, BReturn):
            return self.ssa_expr(env, b.expr)
        if isinstance(b, BSeq):
            ctx, env1 = self.ssa_stmt(env, b.stmt)
            return mk_ctxapply(ctx, self.ssa_body(env1, b.rest),
                               span=b.span, nid=next_node_id())
        if isinstance(b, BIte):
            cond = self.ssa_expr(env, b.cond)
            e1 = self.ssa_body(env, b.then_b)
            e2 = self.ssa_body(env, b.else_b)
            r = self.fresh("ret")
            r1 = self.fresh("ret")
            r2 = self.fresh("ret")
            self.theta.body_ret[b.nid] = (r, r1, r2)
            k = KLetIf([PhiIf("<ret>", r, r1, r2)], cond,
                       KLetIn(r1, e1, KHole(nid=next_node_id()),
                              span=b.span, nid=next_node_id()),
                       KLetIn(r2, e2, KHole(nid=next_node_id()),
                              span=b.span, nid=next_node_id()),
                       KHole(nid=next_node_id()),
                       [EVar(r1, span=b.span, nid=next_node_id())],
                       [EVar(r2, span=b.span, nid=next_node_id())],
                       span=b.span, nid=next_node_id())
            return mk_ctxapply(k, EVar(r, span=b.span, nid=next_node_id()),
                               span=b.span, nid=next_node_id())
        raise TypeError(b)

    # -- declarations ----------------------------------------------------------

    def run(self) -> tuple[SsaProgram, GlobalSsaEnv]:
        functions: dict = {}
        methods: dict = {}
        for f in self.program.functions:
            if f.body is None:
                functions[f.name] = SsaFunc(f.name, list(f.params), None, f)
                continue
            env = {p: p for p in f.params}
            try:
                body = self.ssa_body(env, f.body)
            except SsaError as e:
                self.errors.append(e)
                continue
            functions[f.name] = SsaFunc(f.name, list(f.params), body, f)
        for c in self.program.classes:
            for m in c.methods:
                env = {n: n for n, _ in m.params}
                env["this"] = "this"
                try:
                    body = self.ssa_body(env, m.body)
                except SsaError as e:
                    self.errors.append(e)
                    continue
                methods[(c.name, m.name)] = SsaMethod(
                    m.name, [n for n, _ in m.params], body, m, c)
        top = None
        if self.program.top is not None:
            try:
                top = self.ssa_body({}, self.program.top)
            except SsaError as e:
                self.errors.append(e)
        prog = SsaProgram(functions, methods, top, self.program)
        if self.errors:
            raise SsaErrors(self.errors)
        return prog, self.theta


class SsaErrors(Exception):
    def __init__(self, errors: list):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


def ssa_program(p: Program) -> tuple[SsaProgram, GlobalSsaEnv]:
    return SsaTranslator(p).run()


# ---------------------------------------------------------------------------
# Structural validators (single assignment, binding dominance)


def _binders_and_uses(e: Expr, bound: set, binders: list, errs: list,
                      globals_: frozenset = frozenset()):
    if isinstance(e, EVar):
        if e.name not in bound and e.name not in globals_:
            errs.append(f"use of {e.name} not dominated by a binding")
        return
    if isinstance(e, ECtxApply):
        inner = _ctx_binders(e.ctx, set(bound), binders, errs, globals_)
        _binders_and_uses(e.expr, inner, binders, errs, globals_)
        return
    if isinstance(e, EFuncCall) and isinstance(e.callee, EVar) and \
            e.callee.name in globals_:
        for c in e.args:
            _binders_and_uses(c, bound, binders, errs, globals_)
        return
    for c in expr_children(e):
        _binders_and_uses(c, bound, binders, errs, globals_)


def _ctx_binders(k: Ctx, bound: set, binders: list, errs: list,
                 globals_: frozenset = frozenset()) -> set:
    if isinstance(k, KHole):
        return bound
    if isinstance(k, KLetIn):
        _binders_and_uses(k.expr, bound, binders, errs, globals_)
        binders.append(k.name)
        return _ctx_binders(k.rest, bound | {k.name}, binders, errs, globals_)
    if isinstance(k, KLetIf):
        _binders_and_uses(k.cond, bound, binders, errs, globals_)
        b1 = _ctx_binders(k.then_ctx, set(bound), binders, errs, globals_)
        b2 = _ctx_binders(k.else_ctx, set(bound), binders, errs, globals_)
        for p in k.phis:
            binders.append(p.phi)
            if p.left not in b1:
                errs.append(f"phi input {p.left} unbound in then-branch")
            if p.right not in b2:
                errs.append(f"phi input {p.right} unbound in else-branch")
        return _ctx_binders(k.rest, bound | {p.phi for p in k.phis}, binders,
                            errs, globals_)
    if isinstance(k, KLetWhile):
        phi_bound = bound | {p.phi for p in k.phis}
        for p in k.phis:
            binders.append(p.phi)
            if p.init not in bound:
                errs.append(f"phi init {p.init} unbound before loop")
        _binders_and_uses(k.cond, phi_bound, binders, errs, globals_)
        b1 = _ctx_binders(k.body_ctx, set(phi_bound), binders, errs, globals_)
        for p in k.phis:
            if p.next not in b1:
                errs.append(f"phi back-edge {p.next} unbound in loop body")
        return _ctx_binders(k.rest, phi_bound, binders, errs, globals_)
    raise TypeError(k)


def validate_ssa(e: Expr, params: list, globals_: frozenset = frozenset()) -> list[str]:
    """Single-assignment and dominance checks; returns violations."""
    binders: list = []
    errs: list = []
    bound = set(params) | {"this"}
    _binders_and_uses(e, bound, binders, errs, globals_)
    dupes = {b for b in binders if binders.count(b) > 1}
    for d in sorted(dupes):
        errs.append(f"SSA name {d} bound more than once")
    return errs
