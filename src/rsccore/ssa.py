"""Translation of imperative bodies into functional let/letif/letwhile
expressions.  The rules (`SsaRules`) are written once and used twice:
`SsaTranslator` translates a program for the checker and records the names
it introduced (the global SSA environment), and the lockstep differential
harness translates runtime source configurations under those names."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    BIte, BReturn, BSeq, Body, ClassDecl, Ctx, EArgsLen, ECast, EClosure,
    EConst, ECtxApply, EFieldAssign, EFieldRead, EFuncCall, EMethodCall,
    ENew, EThis, EVar, EWhileRun, Expr, FuncDecl, KHole, KLetIf,
    KLetIn, KLetWhile,
    MethodDecl, NO_SPAN, PhiIf, PhiWhile, Program, SAssign, SExprStmt,
    SFieldAssign, SIte, SSeq, SSkip, SVarDecl, SWhile, SourceSpan, Stmt,
    assigned_names, children, next_node_id,
)
from .frontend.prelude import BUILTIN_NAMES

# the callee of the constructor rewriting's atomic initializer; no source
# program can spell it
CTOR_INIT = "#ctor_init"


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
    """Per-node SSA facts: the names the translation of each statement and
    body introduced."""

    # statement node id -> the let-binder name its translation introduced
    stmt_aux: dict = field(default_factory=dict)
    # if-statement node id -> list[PhiIf]; loop node id -> list[PhiWhile]
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
    globals: frozenset  # the names a callee means globally


def with_rest(k: Ctx, rest: Ctx) -> Ctx:
    """The frame `k` on its own, with `rest` in place of its rest."""
    if isinstance(k, KLetIn):
        return KLetIn(k.name, k.expr, rest, span=k.span, nid=k.nid)
    if isinstance(k, KLetIf):
        return KLetIf(k.phis, k.cond, k.then_ctx, k.else_ctx, rest,
                      k.left_exprs, k.right_exprs, span=k.span, nid=k.nid)
    if isinstance(k, KLetWhile):
        return KLetWhile(k.phis, k.cond, k.body_ctx, rest, k.init_exprs,
                         span=k.span, nid=k.nid)
    raise TypeError(k)


def ctx_compose(k1: Ctx, k2: Ctx) -> Ctx:
    if isinstance(k1, KHole):
        return k2
    return with_rest(k1, ctx_compose(k1.rest, k2))


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


def fold(elements: list, span: SourceSpan = NO_SPAN, nid: int = 0) -> Expr:
    """The term whose spine is `elements`: context frames in evaluation
    order, a running loop among them (its continuation is what follows
    it), then the final expression.  A frame's own rest and a loop's own
    continuation are replaced."""
    *ctxs, tail = elements
    ctx = KHole(nid=0)
    for el in reversed(ctxs):
        if isinstance(el, EWhileRun):
            tail = EWhileRun(el.cond_focus, el.cur_vals, el.phis,
                             el.cond_orig, el.body_ctx,
                             mk_ctxapply(ctx, tail), nid=0)
            ctx = KHole(nid=0)
        else:
            ctx = with_rest(el, ctx)
    return mk_ctxapply(ctx, tail, span=span, nid=nid)


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
    if isinstance(e, EConst):
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


def _drain(gen) -> tuple[list, object]:
    """What generator `gen` yields, and what it returns."""
    items = []
    while True:
        try:
            items.append(next(gen))
        except StopIteration as stop:
            return items, stop.value


class SsaRules:
    """The translation rules of bodies, statements and expressions,
    written once for two uses: `SsaTranslator` translates a program, and
    `semantics.simulate.ConfigTranslator` translates a runtime source
    configuration.  An environment maps source names to SSA names and is
    threaded through: a statement is a generator of context frames in
    evaluation order (their own rests are ignored) that returns the
    environment after it, and a body yields its frames, then its final
    expression.

    A subclass supplies the parameters of the rules:
    - the name source `named(table, nid, make)`: the names node `nid`
      binds, kept in `table` (a field of `theta`); `make` computes them
      fresh, and only the program translator calls it;
    - the variable resolver: `var(env, e)` for a variable, `this` or
      `arguments.length`, and `slot(env, x, name, span)` for the input
      `name` of source variable `x` that a phi or a loop entry reads;
    - `globals`, the names a callee means globally (see `is_global`).
    `stmt` and `body` translate a statement or body nested in a sequence
    (lazily here; the program translator folds it through `ssa_stmt` or
    `ssa_body`), and a subclass gives each new node its id (`nid`).
    A loop phi's back edge is written once, by the program translator."""

    theta: GlobalSsaEnv

    def is_global(self, env: SsaEnv, callee: EVar) -> bool:
        """A callee that names a global function or builtin is that one."""
        return callee.name in self.globals

    def stmt(self, env: SsaEnv, s: Stmt):
        return self.frames(env, s)

    def body(self, env: SsaEnv, b: Body):
        return self.elements(env, b)

    # -- expressions --------------------------------------------------------

    def expr(self, env: SsaEnv, e: Expr) -> Expr:
        if isinstance(e, (EVar, EThis, EArgsLen)):
            return self.var(env, e)
        if isinstance(e, EConst):
            return EConst(e.value, span=e.span, nid=self.nid())
        if isinstance(e, EFieldRead):
            return EFieldRead(self.expr(env, e.obj), e.fname,
                              span=e.span, nid=self.nid())
        if isinstance(e, EMethodCall):
            return EMethodCall(self.expr(env, e.obj), e.mname,
                               [self.expr(env, a) for a in e.args],
                               span=e.span, nid=self.nid())
        if isinstance(e, EFuncCall):
            callee = e.callee
            if isinstance(callee, EVar) and self.is_global(env, callee):
                callee = EVar(callee.name, span=callee.span, nid=self.nid())
            else:
                callee = self.expr(env, callee)
            return EFuncCall(callee, [self.expr(env, a) for a in e.args],
                             span=e.span, nid=self.nid())
        if isinstance(e, ENew):
            return ENew(e.cname, [self.expr(env, a) for a in e.args],
                        span=e.span, nid=self.nid())
        if isinstance(e, ECast):
            return ECast(e.rtype, self.expr(env, e.expr), span=e.span,
                         nid=self.nid())
        if isinstance(e, EClosure):
            return EClosure(e.fname,
                            [self.expr(env, c) for c in e.captures],
                            span=e.span, nid=self.nid())
        raise SsaError(f"cannot translate {type(e).__name__}", e.span)

    # -- statements ----------------------------------------------------------

    def frames(self, env: SsaEnv, s: Stmt):
        aux = self.theta.stmt_aux
        if isinstance(s, (SVarDecl, SAssign)):
            name = self.named(aux, s.nid, lambda: self.binder(env, s))
            yield self._let(name, self.expr(env, s.expr), s)
            return {**env, s.name: name}
        if isinstance(s, (SFieldAssign, SExprStmt)):
            # a field write is the value statement of its write
            e = self.expr(env, s.expr) if isinstance(s, SExprStmt) else \
                EFieldAssign(self.expr(env, s.obj), s.fname,
                             self.expr(env, s.rhs), span=s.span,
                             nid=self.nid())
            name = self.named(aux, s.nid, lambda: self.fresh("_"))
            yield self._let(name, e, s)
            return env
        if isinstance(s, SIte):
            cond = self.expr(env, s.cond)
            k1, env1 = self.ssa_stmt(env, s.then_s)
            k2, env2 = self.ssa_stmt(env, s.else_s)
            # branch-local declarations die at the join
            phis = self.named(self.theta.stmt_phis, s.nid, lambda: [
                PhiIf(x, self.fresh(x), n1, n2) for x, n1, n2 in env_diff(
                    {x: env1[x] for x in env}, {x: env2[x] for x in env})])
            lefts = [self.slot(env1, p.src, p.left, s.span) for p in phis]
            rights = [self.slot(env2, p.src, p.right, s.span) for p in phis]
            yield KLetIf(phis, cond, k1, k2, KHole(nid=self.nid()), lefts,
                         rights, span=s.span, nid=self.nid())
            return {**env, **{p.src: p.phi for p in phis}}
        if isinstance(s, SWhile):
            phis, head, cond, body = self.loop(env, s)
            inits = [self.slot(env, p.src, p.init, s.span) for p in phis]
            yield KLetWhile(phis, cond, body, KHole(nid=self.nid()), inits,
                            span=s.span, nid=self.nid())
            return head
        if isinstance(s, SSeq):
            while isinstance(s, SSeq):
                env = yield from self.stmt(env, s.first)
                s = s.second
            return (yield from self.stmt(env, s))
        if isinstance(s, SSkip):
            return env
        raise SsaError(f"cannot translate {type(s).__name__}", s.span)

    def _let(self, name: str, e: Expr, node) -> KLetIn:
        return KLetIn(name, e, KHole(nid=self.nid()), span=node.span,
                      nid=self.nid())

    def loop(self, env: SsaEnv, s: SWhile):
        """The phis of loop `s`, its header's environment, and its
        condition and body under that environment."""
        def make():
            updated = assigned_names(s.body, set(env))
            return [PhiWhile(x, self.fresh(x), env[x], None)
                    for x in env if x in updated]

        phis = self.named(self.theta.stmt_phis, s.nid, make)
        head = {**env, **{p.src: p.phi for p in phis}}
        cond = self.expr(head, s.cond)
        body, out = self.ssa_stmt(head, s.body)
        for p in phis:
            if p.next is None:  # the back edge: set by the program only
                p.next = out[p.src]
        return phis, head, cond, body

    def ssa_stmt(self, env: SsaEnv, s: Stmt) -> tuple[Ctx, SsaEnv]:
        ctxs, env = _drain(self.frames(env, s))
        ctx = KHole(nid=self.nid())
        for k in reversed(ctxs):
            ctx = with_rest(k, ctx)
        return ctx, env

    # -- bodies ---------------------------------------------------------------

    def elements(self, env: SsaEnv, b: Body):
        if isinstance(b, BSeq):
            while isinstance(b, BSeq):
                env = yield from self.stmt(env, b.stmt)
                b = b.rest
            yield from self.body(env, b)
        elif isinstance(b, BIte):
            cond = self.expr(env, b.cond)
            e1 = self.ssa_body(env, b.then_b)
            e2 = self.ssa_body(env, b.else_b)
            r, r1, r2 = self.named(self.theta.body_ret, b.nid, lambda: (
                self.fresh("ret"), self.fresh("ret"), self.fresh("ret")))
            yield KLetIf([PhiIf("<ret>", r, r1, r2)], cond,
                         self._let(r1, e1, b), self._let(r2, e2, b),
                         KHole(nid=self.nid()),
                         [EVar(r1, span=b.span, nid=self.nid())],
                         [EVar(r2, span=b.span, nid=self.nid())],
                         span=b.span, nid=self.nid())
            yield EVar(r, span=b.span, nid=self.nid())
        else:
            # a return; at run time also the expression a call returns into
            yield self.expr(env, b.expr if isinstance(b, BReturn) else b)

    def ssa_body(self, env: SsaEnv, b: Body) -> Expr:
        return fold(_drain(self.elements(env, b))[0], b.span, self.nid())


class SsaTranslator(SsaRules):
    """The translation of a program: fresh names, recorded in `theta`,
    and variables read through the SSA environment.  Every nested
    statement and body goes through `ssa_stmt` and `ssa_body`."""

    def __init__(self, program: Program):
        self.program = program
        self.theta = GlobalSsaEnv()
        self.counter = 0
        self.globals = frozenset(f.name for f in program.functions) | \
            BUILTIN_NAMES | {CTOR_INIT}
        self.errors: list[SsaError] = []

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}#{self.counter}"

    def nid(self) -> int:
        return next_node_id()

    # -- name source -----------------------------------------------------------

    def named(self, table: dict, nid: int, make):
        table[nid] = names = make()
        return names

    def binder(self, env: SsaEnv, s) -> str:
        """The name a declaration or an assignment binds."""
        if isinstance(s, SVarDecl) and s.name in env:
            raise SsaError(f"redeclaration of live variable {s.name!r}",
                           s.span)
        if isinstance(s, SAssign) and s.name not in env:
            raise SsaError(f"assignment to unbound variable {s.name!r}",
                           s.span)
        return self.fresh(s.name)

    # -- variable resolver -------------------------------------------------------

    def var(self, env: SsaEnv, e: Expr) -> Expr:
        if isinstance(e, EVar):
            if e.name not in env:
                raise SsaError(f"unbound variable {e.name!r}", e.span)
            return EVar(env[e.name], span=e.span, nid=next_node_id())
        if isinstance(e, EThis):
            if "this" not in env:
                raise SsaError("this used outside a method", e.span)
            return EThis(span=e.span, nid=next_node_id())
        if "#argc" not in env:
            raise SsaError("arguments.length used outside a function", e.span)
        return EArgsLen(span=e.span, nid=next_node_id())

    def slot(self, env: SsaEnv, x: str, name: str, span) -> Expr:
        return EVar(name, span=span, nid=next_node_id())

    def is_global(self, env: SsaEnv, callee: EVar) -> bool:
        # the source machine keeps a variable past its scope, so a local
        # that the call could also mean is rejected here
        name = callee.name
        if name in env and name in self.globals:
            raise SsaError(f"local {name!r} shadows the global function"
                           f" {name!r}", callee.span)
        if name not in env and name not in self.globals:
            raise SsaError(f"unbound function {name!r}", callee.span)
        return SsaRules.is_global(self, env, callee)

    # -- nested statements and bodies ----------------------------------------------

    def stmt(self, env: SsaEnv, s: Stmt):
        k, env = self.ssa_stmt(env, s)
        while not isinstance(k, KHole):
            yield k
            k = k.rest
        return env

    def body(self, env: SsaEnv, b: Body):
        yield self.ssa_body(env, b)

    # -- declarations ----------------------------------------------------------

    def run(self) -> tuple[SsaProgram, GlobalSsaEnv]:
        functions: dict = {}
        methods: dict = {}
        for f in self.program.functions:
            body = self._unit({p: p for p in [*f.params, "#argc"]}, f.body)
            if body is not None or f.body is None:
                functions[f.name] = SsaFunc(f.name, list(f.params), body, f)
        for c in self.program.classes:
            for m in c.methods:
                params = [n for n, _ in m.params]
                body = self._unit({n: n for n in [*params, "this", "#argc"]},
                                  m.body)
                if body is not None:
                    methods[(c.name, m.name)] = SsaMethod(
                        m.name, params, body, m, c)
        top = self._unit({}, self.program.top)
        prog = SsaProgram(functions, methods, top, self.program,
                          self.globals)
        if self.errors:
            raise SsaErrors(self.errors)
        return prog, self.theta

    def _unit(self, env: SsaEnv, b: Optional[Body]) -> Optional[Expr]:
        """The translation of body `b`, or None when there is no body or
        it does not translate (the error is kept)."""
        if b is None:
            return None
        try:
            return self.ssa_body(env, b)
        except SsaError as e:
            self.errors.append(e)
            return None


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
    for c in children(e):
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
