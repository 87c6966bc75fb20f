"""Expression and context checking over the functional SSA form: each
typing rule synthesizes a type and appends well-formedness / subtyping
constraints, with refinement-variable templates standing in for inferred
instantiations and join types."""

from __future__ import annotations

import itertools
from typing import Optional

from ..frontend.prelude import load_prelude
from ..infer import KvarRegistry
from ..logic import (
    ClassTable, Guard, NameSupply, TypeEnv, WfViolation, drop_kvars,
    selfify, strengthen, wf_type,
)
from ..solver import Query, SolverConfig, check_valid
from ..ssa import CTOR_INIT, subst_expr
from ..syntax import (
    BArr, BBot, BClass, BPrim, BVar, Base, EArgsLen, ECast, EClosure, EConst,
    ECtxApply, EFieldAssign, EFieldRead, EFuncCall, EMethodCall, ENew, EThis,
    EVar, Expr, KHole, KLetIf, KLetIn, KLetWhile, NULL, PRIM_TAG, P_TRUE,
    PAtom, PNot, RBase, RExists, RFun, RInter, RType, R_BOOL, R_BOT, R_UNDEF,
    SourceSpan, TBuiltin, TConst, TField, TThis, TUF, TValueVar, TVar, Term,
    UNDEFINED, base_of_value, base_str, base_subst, conjuncts_of, exists_core,
    map_core, map_type, p_and, p_eq, pred_subst, select_conjunct,
    trivially_refine, type_str, type_subst, with_field,
)
from .constraints import Constraint, Diagnostic


class CheckAbort(Exception):
    """A structural error that makes the current unit unverifiable."""

    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class Checker:
    def __init__(self, classes: ClassTable, registry: KvarRegistry,
                 supply: NameSupply, config: SolverConfig,
                 ctor_inits: dict, witnesses: dict, fn_sigs: dict,
                 fn_decls: dict, ssa_funcs: dict):
        self.classes = classes
        self.registry = registry
        self.supply = supply
        self.config = config
        self.prelude = load_prelude()
        self.ctor_inits = ctor_inits  # cname -> RFun for ctor_init
        self.witnesses = witnesses  # cname -> {field: ctor param}
        self.fn_sigs = fn_sigs  # function name -> signature (None: unannotated)
        self.fn_decls = fn_decls  # function name -> FuncDecl
        self.ssa_funcs = ssa_funcs  # function name -> SSA function
        self.constraints: list[Constraint] = []
        self.diags: list[Diagnostic] = []
        self._cid = itertools.count(1)
        self.current_unit = "<top>"
        self._closure_stack: list[str] = []
        self._current_ctor: Optional[str] = None

    # -- bookkeeping -------------------------------------------------------------

    def error(self, span: SourceSpan, rule: str, msg: str):
        self.diags.append(Diagnostic("error", span, rule, msg))

    def abort(self, span: SourceSpan, rule: str, msg: str):
        raise CheckAbort(Diagnostic("error", span, rule, msg))

    def emit_wf(self, env: TypeEnv, t: RType, span: SourceSpan, rule: str):
        self.constraints.append(Constraint("wf", env, None, t, span, rule,
                                           next(self._cid),
                                           self.current_unit))
        for v in wf_type(env, t):
            self.error(span, "WF", v)

    def emit_sub_atomic(self, env: TypeEnv, lhs: RBase, rhs: RBase,
                        span: SourceSpan, rule: str):
        self.constraints.append(Constraint("sub", env, lhs, rhs, span, rule,
                                           next(self._cid),
                                           self.current_unit))

    # -- environments ---------------------------------------------------------

    def _bind(self, env: TypeEnv, name: str, t: RType) -> TypeEnv:
        """Bind name at t (see `TypeEnv.bind`); a clash aborts the unit."""
        try:
            return env.bind(name, t)
        except WfViolation as e:
            raise CheckAbort(Diagnostic("error", SourceSpan("", 0, 0, 0, 0),
                                        "ENV", e.reason))

    def bind_fresh(self, env: TypeEnv, base: str, t: RType) -> tuple:
        """Bind t under a fresh name from `base`; returns (env', name)."""
        name = self.supply.fresh(base)
        return self._bind(env, name, t), name

    # -- terms ------------------------------------------------------------------

    def term_of(self, env: TypeEnv, e: Expr) -> Optional[Term]:
        """The logical image of a pure expression, when it has one."""
        if isinstance(e, EVar):
            t = env.lookup(e.name)
            if isinstance(t, RBase):
                return TVar(e.name)
            return None
        if isinstance(e, EConst):
            return TConst(e.value)
        if isinstance(e, EThis):
            return TThis()
        if isinstance(e, EFieldRead):
            base = self.term_of(env, e.obj)
            if base is None:
                return None
            try:
                bt = self._type_of_term(env, base)
                mut, _ = self.classes.field_of(bt, base, e.fname, False)
            except WfViolation:
                return None
            if mut != "imm":
                return None
            return TField(base, e.fname)
        return None

    def _type_of_term(self, env: TypeEnv, t: Term) -> RType:
        if isinstance(t, TVar):
            r = env.lookup(t.name)
            if r is None:
                raise WfViolation(f"unbound {t.name}")
            return r
        if isinstance(t, TThis):
            r = env.lookup("this")
            if r is None:
                raise WfViolation("this unbound")
            return r
        if isinstance(t, TField):
            bt = self._type_of_term(env, t.base)
            _, ft = self.classes.field_of(bt, t.base, t.fname, False)
            return ft
        if isinstance(t, TConst):
            return _const_type(t.value)
        raise WfViolation("not a simple term")

    # -- subtyping ---------------------------------------------------------------

    def sub(self, env: TypeEnv, t1: RType, t2: RType, span: SourceSpan,
            rule: str):
        if t1 == t2:
            return  # SUB-REFL
        if isinstance(t1, RExists):
            env2, t1 = env.open(t1, until=t2)  # SUB-REFL at every level
            self.sub(env2, t1, t2, span, rule)
            return
        if isinstance(t2, RExists):
            witness = _selfification_witness(t1)
            if witness is None:
                self.abort(span, rule, "cannot determine a witness for an"
                           " existential bound")
            self.sub(env, t1, type_subst(t2.body, {t2.name: witness}), span,
                     rule)
            return
        if isinstance(t1, RFun) and isinstance(t2, RFun):
            self._sub_fun(env, t1, t2, span, rule)
            return
        if isinstance(t1, RInter):
            c = select_conjunct(t1, len(t2.params)) \
                if isinstance(t2, RFun) else None
            if c is None:
                self.abort(span, rule, "no overload conjunct matches the"
                           " expected function type")
            self.sub(env, c, t2, span, rule)
            return
        if not (isinstance(t1, RBase) and isinstance(t2, RBase)):
            self.abort(span, rule,
                       f"cannot relate {type_str(t1)} and {type_str(t2)}")
        b1, b2 = t1.base, t2.base
        if isinstance(b1, BBot):
            return
        if isinstance(b1, BArr) and isinstance(b2, BArr):
            self.emit_sub_atomic(env, t1, RBase(b1, t2.pred), span, rule)
            self.sub(env, b1.elem, b2.elem, span, rule)
            return
        if _same_base(b1, b2):
            self.emit_sub_atomic(env, t1, t2, span, rule)
            return
        if isinstance(b1, BClass) and isinstance(b2, BClass):
            if self.classes.is_subclass(b1.name, b2.name):  # SUB-EXT
                self.emit_sub_atomic(env, t1, RBase(b1, t2.pred), span, rule)
                return
            self.abort(span, rule,
                       f"{b1.name} is not a subclass of {b2.name}")
        if isinstance(b1, BVar) and isinstance(b2, BPrim) and \
                b2.name in ("number", "bool", "string"):
            # a generic value flows into a primitive position: the tag must
            # be provable (how typeof guards discharge)
            goal = p_and(p_eq(TUF("ttag", (TValueVar(),)),
                              TConst(PRIM_TAG[b2.name])), t2.pred)
            self.emit_sub_atomic(env, t1, RBase(b1, goal), span, rule)
            return
        self.abort(span, rule, f"base type mismatch: {base_str(b1)} is not"
                   f" compatible with {base_str(b2)}")

    def _sub_fun(self, env: TypeEnv, f1: RFun, f2: RFun, span, rule):
        if len(f1.params) != len(f2.params):
            self.abort(span, rule, "function arity mismatch")
        env2 = env
        ren: dict = {}
        for (n1, p1), (n2, p2) in zip(f1.params, f2.params):
            p1s = type_subst(p1, ren)
            # contra-variance on parameters
            self.sub(env2, p2, p1s, span, rule)
            env2, fresh = self.bind_fresh(env2, n2, p2)
            ren[n1] = TVar(fresh)
            ren[n2] = TVar(fresh)
        r1 = type_subst(f1.ret, ren) if f1.ret is not None else R_UNDEF
        r2 = type_subst(f2.ret, ren) if f2.ret is not None else R_UNDEF
        self.sub(env2, r1, r2, span, rule)

    # -- compatibility subtyping (casts) ------------------------------------------

    def compat_subtype(self, env: TypeEnv, t1: RType, t2: RType,
                       span: SourceSpan):
        """Def.: t1 can be cast to t2 when the target's class invariants
        follow from t1's refinement; returns (ok, reason)."""
        t2 = exists_core(t2)
        if not isinstance(t2, RBase):
            return False, "cast target must be a base type"
        env2, t = env.open(t1)
        if not isinstance(t, RBase):
            return False, "cast subject must be a base value"
        b1, b2 = t.base, t2.base
        if isinstance(b2, BClass):
            if not isinstance(b1, (BClass, BVar)):
                return False, f"cannot cast {base_str(b1)} to class" \
                              f" {b2.name}"
            inv = self.classes.class_inv(b2.name, TValueVar())
            hyp = p_and(drop_kvars(env2.embed()), drop_kvars(t.pred))
            verdict = check_valid(Query.make(env2.query_sorts(b1), hyp, inv),
                                  self.config)
            if not verdict.is_valid:
                why = verdict.reason or verdict.model or "not provable"
                return False, (f"cannot prove the invariants of {b2.name}:"
                               f" {why}")
            strengthened = RBase(b2, p_and(t.pred,
                                           self.classes.class_inv(
                                               b2.name, TValueVar())))
            self.sub(env2, strengthened, t2, span, "LQ-CHK-CAST")
            return True, None
        if isinstance(b2, (BPrim, BArr)):
            if _same_base(b1, b2) or isinstance(b1, BVar):
                self.sub(env2, t, t2, span, "LQ-CHK-CAST")
                return True, None
            return False, (f"base mismatch: cannot cast {base_str(b1)}"
                           f" to {base_str(b2)}")
        return False, "unsupported cast target"

    # -- expressions --------------------------------------------------------------

    def check_expr(self, env: TypeEnv, e: Expr) -> RType:
        if isinstance(e, EVar):
            t = env.lookup(e.name)
            if t is None:
                self.abort(e.span, "LQ-CHK-VAR", f"unbound variable"
                           f" {e.name!r}")
            if isinstance(t, RBase):
                return selfify(t, TVar(e.name))
            return t
        if isinstance(e, EConst):
            return _const_type(e.value)
        if isinstance(e, EThis):
            t = env.lookup("this")
            if t is None:
                self.abort(e.span, "LQ-CHK-VAR", "this outside a method")
            return selfify(t, TThis())
        if isinstance(e, EArgsLen):
            self.abort(e.span, "LQ-CHK-CONST",
                       "arguments.length outside an overloaded function")
        if isinstance(e, EFieldRead):
            return self._check_field_read(env, e)
        if isinstance(e, EMethodCall):
            return self._check_method_call(env, e)
        if isinstance(e, EFuncCall):
            return self._check_func_call(env, e)
        if isinstance(e, ENew):
            return self._check_new(env, e)
        if isinstance(e, ECast):
            return self._check_cast(env, e)
        if isinstance(e, EClosure):
            t = self._closure_type(env, e, expected=None)
            if t is None:
                self.abort(e.span, "LQ-CHK-VAR",
                           f"function {e.fname!r} needs a type annotation"
                           " to be used as a value")
            return t
        if isinstance(e, EFieldAssign):
            return self._check_field_assign(env, e)
        if isinstance(e, ECtxApply):
            env2 = self.check_ctx(env, e.ctx)
            return _package(env, env2, self.check_expr(env2, e.expr))
        self.abort(e.span, "CHECK", f"cannot check {type(e).__name__}")

    def _receiver(self, env: TypeEnv, obj: Expr) -> tuple:
        """(env', term, type) of a receiver: its term is its logical image,
        or else a fresh `recv` name bound at its checked type."""
        term = self.term_of(env, obj)
        if term is None:
            env, recv = self.bind_fresh(env, "recv", self.check_expr(env, obj))
            term = TVar(recv)
        return env, term, self._type_of_term(env, term)

    def _check_field_read(self, env: TypeEnv, e: EFieldRead) -> RType:
        env2, recv, rt = self._receiver(env, e.obj)
        try:
            mut, ft = self.classes.field_of(rt, recv, e.fname,
                                            strengthen_with_refinement=True)
        except WfViolation as ex:
            self.abort(e.span, "LQ-CHK-FIELD", ex.reason)
        if mut == "imm":
            ft = selfify(ft, TField(recv, e.fname))
        return _package(env, env2, ft)

    def _check_method_call(self, env: TypeEnv, e: EMethodCall) -> RType:
        env2, recv, rt = self._receiver(env, e.obj)
        try:
            sig, _, _ = self.classes.has_member(rt, recv, e.mname)
        except WfViolation as ex:
            self.abort(e.span, "LQ-CHK-INV", ex.reason)
        result, _ = self._check_call(env2, sig, e.args, e.span, "LQ-CHK-INV")
        return _package(env, env2, result)

    def _check_func_call(self, env: TypeEnv, e: EFuncCall) -> RType:
        callee = e.callee
        args = e.args
        if isinstance(callee, EClosure):
            if callee.fname in self.fn_sigs and \
                    self.fn_sigs[callee.fname] is not None:
                sig = self._signature_for(callee.fname,
                                          len(callee.captures) + len(args),
                                          e.span)
                result, _ = self._check_call(env, sig,
                                             list(callee.captures) + args,
                                             e.span, "LQ-CHK-CALL")
                return result
            self.abort(e.span, "LQ-CHK-CALL",
                       f"call of unannotated function {callee.fname!r}"
                       " (annotate it or pass it to an annotated one)")
        if isinstance(callee, EVar) and callee.name not in env:
            name = callee.name
            if name == CTOR_INIT:  # only a rewritten constructor calls it
                sig = self.ctor_inits[self._current_ctor]
                return self._check_call(env, sig, e.args, e.span,
                                        "CTOR-INIT")[0]
            if name == "arraylit#":
                return self._check_array_lit(env, e)
            sig = self.prelude.get(name)
            if sig is None and name in self.fn_sigs:
                sig = self._signature_for(name, len(args), e.span)
            if sig is None:
                self.abort(e.span, "LQ-CHK-CALL",
                           f"unknown function {name!r}")
            result, _ = self._check_call(env, sig, args, e.span,
                                         "LQ-CHK-CALL")
            return result
        t_callee = self.check_expr(env, callee)
        if isinstance(t_callee, RInter):
            t_callee = self._select_conjunct(t_callee, len(args), e.span)
        if not isinstance(t_callee, RFun):
            self.abort(e.span, "LQ-CHK-CALL",
                       f"call of a non-function value of type"
                       f" {type_str(t_callee)}")
        result, _ = self._check_call(env, t_callee, args, e.span,
                                     "LQ-CHK-CALL")
        return result

    def _signature_for(self, name: str, nargs: int, span) -> RFun:
        sig = self.fn_sigs.get(name)
        if sig is None:
            self.abort(span, "LQ-CHK-CALL",
                       f"function {name!r} has no signature yet (annotate"
                       " it or declare it earlier)")
        if isinstance(sig, RInter):
            return self._select_conjunct(sig, nargs, span)
        return sig

    def _select_conjunct(self, inter: RInter, nargs: int, span) -> RFun:
        sig = select_conjunct(inter, nargs)
        if sig is None:
            self.abort(span, "LQ-CHK-CALL",
                       f"no overload takes {nargs} argument(s)")
        return sig

    def _check_array_lit(self, env: TypeEnv, e: EFuncCall) -> RType:
        elem_base: Base = BPrim("number")
        first = True
        env2 = env
        for a in e.args:
            env2, t = env2.open(self.check_expr(env2, a), base="el")
            base = t.base if isinstance(t, RBase) else None
            if base is None:
                self.abort(a.span, "LQ-CHK-CALL",
                           "array literals hold base-typed values")
            if first:
                elem_base = base
                first = False
            elif not _same_base(base, elem_base):
                self.abort(a.span, "LQ-CHK-CALL",
                           "array literal elements have different base"
                           " types")
        n = len(e.args)
        result = RBase(BArr(trivially_refine(elem_base)),
                       p_eq(TUF("len", (TValueVar(),)), TConst(n)))
        return _package(env, env2, result)

    # -- the generic dependent call ------------------------------------------------

    def _check_call(self, env: TypeEnv, sig: RFun, args: list,
                    span: SourceSpan, rule: str):
        if len(args) != len(sig.params):
            self.abort(span, rule,
                       f"expected {len(sig.params)} argument(s), got"
                       f" {len(args)}")
        # synthesize argument types (closures deferred)
        arg_types: list = []
        for a in args:
            if isinstance(a, EClosure):
                t = self._closure_type(env, a, expected=None)
                arg_types.append(t)  # None for unannotated
            else:
                arg_types.append(self.check_expr(env, a))
        # instantiate generics at bases discovered from the arguments
        inst: dict = {}
        if sig.tyvars:
            for (pn, pt), at in zip(sig.params, arg_types):
                if at is not None:
                    _unify_bases(pt, at, set(sig.tyvars), inst)
            bsub = {}
            for tv in sig.tyvars:
                base = inst.get(tv)
                if base is None:
                    bsub[tv] = R_BOT
                else:
                    bsub[tv] = self.registry.fresh_template(
                        base, env, ("tyvar", self.current_unit, tv,
                                    span.line, span.col))
                    self.emit_wf(env, bsub[tv], span, rule)
            sig = with_field(map_type(sig, lambda t: base_subst(t, bsub),
                                      lambda p: p), "tyvars", ())
        # dependent parameter passing
        env2 = env
        subst: dict = {}
        for (pn, pt), a, at in zip(sig.params, args, arg_types):
            pt_i = type_subst(pt, subst)
            if isinstance(a, EClosure) and at is None:
                if not isinstance(pt_i, RFun):
                    self.abort(a.span, rule,
                               "function value passed where a"
                               f" {type_str(pt_i)} is expected")
                self._check_closure_against(env2, a, pt_i, a.span)
                continue
            term = self.term_of(env2, a)
            if term is not None and not isinstance(at, RFun):
                self.sub(env2, at, pt_i, a.span, rule)
                subst[pn] = term
            else:
                if isinstance(at, (RFun, RInter)):
                    self.sub(env2, at, pt_i, a.span, rule)
                    continue
                env2, fresh = self.bind_fresh(env2, pn, at)
                self.sub(env2, env2.lookup(fresh), pt_i, a.span, rule)
                subst[pn] = TVar(fresh)
        if sig.precond != P_TRUE:
            goal = pred_subst(sig.precond, subst)
            self.emit_sub_atomic(env2, R_BOOL,
                                 RBase(BPrim("bool"), goal), span,
                                 "PRECOND")
        ret = sig.ret if sig.ret is not None else R_UNDEF
        result = type_subst(ret, subst)
        return _package(env, env2, result), subst

    # -- closures ------------------------------------------------------------------

    def _closure_type(self, env: TypeEnv, e: EClosure,
                      expected: Optional[RFun]) -> Optional[RType]:
        sig = self.fn_sigs.get(e.fname)
        if sig is None:
            return None  # unannotated: only checkable against an expected type
        if isinstance(sig, RInter):
            if e.captures:
                self.abort(e.span, "LQ-CHK-CLOSURE",
                           "overloaded nested functions are unsupported")
            return sig
        if not e.captures:
            return sig
        # partial application of the leading capture parameters
        env2 = env
        subst: dict = {}
        for (pn, pt), cap in zip(sig.params, e.captures):
            term = self.term_of(env2, cap)
            at = self.check_expr(env2, cap)
            pt_i = type_subst(pt, subst)
            self.sub(env2, at, pt_i, e.span, "LQ-CHK-CLOSURE")
            if term is None:
                self.abort(e.span, "LQ-CHK-CLOSURE",
                           "captured value must be a simple variable")
            subst[pn] = term
        rest = with_field(sig, "params", sig.params[len(e.captures):])
        return map_type(rest, lambda t: type_subst(t, subst),
                        lambda p: pred_subst(p, subst))

    def _check_closure_against(self, env: TypeEnv, e: EClosure,
                               expected: RFun, span: SourceSpan):
        """An unannotated (lifted) function checked against the function
        type its context demands, under the call-site environment."""
        fname = e.fname
        if fname in self._closure_stack:
            self.abort(span, "LQ-CHK-CLOSURE",
                       f"recursive unannotated function {fname!r} needs an"
                       " annotation")
        decl = self.fn_decls.get(fname)
        ssa = self.ssa_funcs.get(fname)
        if decl is None or ssa is None or ssa.body is None:
            self.abort(span, "LQ-CHK-CLOSURE",
                       f"no body for function {fname!r}")
        ncaps = len(decl.captures)
        own = decl.params[ncaps:]
        if len(own) != len(expected.params):
            self.abort(span, "LQ-CHK-CLOSURE",
                       f"function {fname!r} takes {len(own)} parameter(s)"
                       f" but {len(expected.params)} are expected")
        env2 = env
        ren: dict = {}
        for pname, cap in zip(decl.params[:ncaps], e.captures):
            env2, ren[pname] = self.bind_fresh(env2, pname,
                                               self.check_expr(env2, cap))
        dep: dict = {}
        for pname, (en, pt) in zip(own, expected.params):
            env2, ren[pname] = self.bind_fresh(env2, pname,
                                               type_subst(pt, dep))
            dep[en] = TVar(ren[pname])
        body = subst_expr(ssa.body, {k: EVar(v, nid=0)
                                     for k, v in ren.items()})
        self._closure_stack.append(fname)
        try:
            t_body = self.check_expr(env2, body)
        finally:
            self._closure_stack.pop()
        ret = type_subst(expected.ret, dep) if expected.ret is not None \
            else R_UNDEF
        self.sub(env2, t_body, ret, span, "LQ-CHK-CLOSURE")

    # -- object construction ----------------------------------------------------

    def _check_new(self, env: TypeEnv, e: ENew) -> RType:
        cname = e.cname
        if not self.classes.has_class(cname) or cname == "Object":
            self.abort(e.span, "LQ-CHK-NEW", f"unknown class {cname!r}")
        ctor = self.classes.constructor_of(cname)
        if ctor is None:
            if self.classes.fields_of(RBase(BClass(cname), P_TRUE),
                                      TThis(), False) or e.args:
                self.abort(e.span, "LQ-CHK-NEW",
                           f"class {cname} needs a constructor")
            return RBase(BClass(cname), P_TRUE)
        sig = RFun(tuple(ctor.params), RBase(BClass(cname), P_TRUE), (),
                   ctor.precond)
        result, subst = self._check_call(env, sig, e.args, e.span,
                                         "LQ-CHK-NEW")
        # package witnesses for immutable fields initialized directly from
        # constructor parameters
        wit = self.witnesses.get(cname, {})
        imm = {n for m, n, _ in self.classes.fields_of(
            RBase(BClass(cname), P_TRUE), TThis(), False) if m == "imm"}
        conj = []
        for fname, pname in sorted(wit.items()):
            if fname in imm and pname in subst:
                conj.append(p_eq(TField(TValueVar(), fname), subst[pname]))
        refined = RBase(BClass(cname), p_and(*conj))
        return map_core(result, lambda _: refined)

    # -- casts, field writes -----------------------------------------------------

    def _check_cast(self, env: TypeEnv, e: ECast) -> RType:
        t = self.check_expr(env, e.expr)
        self.emit_wf(env, e.rtype, e.span, "LQ-CHK-CAST")
        ok, reason = self.compat_subtype(env, t, e.rtype, e.span)
        if not ok:
            self.abort(e.span, "LQ-CHK-CAST", f"unsafe cast: {reason}")
        term = self.term_of(env, e.expr)
        if term is not None:
            return selfify(e.rtype, term)
        return e.rtype

    def _check_field_assign(self, env: TypeEnv, e: EFieldAssign) -> RType:
        env2, recv, rt = self._receiver(env, e.obj)
        try:
            mut, bound = self.classes.field_of(
                rt, recv, e.fname, strengthen_with_refinement=False)
        except WfViolation as ex:
            self.abort(e.span, "LQ-CHK-ASGN", ex.reason)
        if mut != "mut":
            self.abort(e.span, "LQ-CHK-ASGN",
                       f"assignment to immutable field {e.fname!r} outside"
                       " the constructor")
        t_rhs = self.check_expr(env2, e.rhs)
        self.sub(env2, t_rhs, bound, e.span, "LQ-CHK-ASGN")
        return _package(env, env2, t_rhs)

    # -- contexts -----------------------------------------------------------------

    def check_ctx(self, env: TypeEnv, k) -> TypeEnv:
        """The environment a context gives its hole: `env` extended with
        the bindings and guards the context contributes."""
        if isinstance(k, KHole):
            return env
        if isinstance(k, KLetIn):
            env2 = self._bind(env, k.name, self.check_expr(env, k.expr))
            return self.check_ctx(env2, k.rest)
        if isinstance(k, KLetIf):
            return self._check_letif(env, k)
        if isinstance(k, KLetWhile):
            return self._check_letwhile(env, k)
        raise TypeError(k)

    def _check_cond(self, env: TypeEnv, cond: Expr) -> tuple:
        """(env', grd): the condition's type bound under a fresh `grd`."""
        env2, grd = self.bind_fresh(env, "grd", self.check_expr(env, cond))
        core = env2.lookup(grd)
        ok = isinstance(core, RBase) and (
            isinstance(core.base, BBot) or
            (isinstance(core.base, BPrim) and core.base.name == "bool"))
        if not ok:
            self.abort(cond.span, "LQ-CHK-CTX-LETIF",
                       "condition is not a boolean")
        return env2, grd

    def _check_letif(self, env: TypeEnv, k: KLetIf) -> TypeEnv:
        env_g, grd = self._check_cond(env, k.cond)
        env1 = self.check_ctx(env_g.guard(PAtom(TVar(grd))), k.then_ctx)
        env2 = self.check_ctx(env_g.guard(PNot(PAtom(TVar(grd)))),
                              k.else_ctx)
        joins: list = []
        for p in k.phis:
            t1 = env1.lookup(p.left)
            t2 = env2.lookup(p.right)
            if t1 is None or t2 is None:
                self.abort(k.span, "LQ-CHK-CTX-LETIF",
                           f"phi input of {p.phi} unbound")
            base = self._join_base(t1, t2, k.span)
            tphi = self.registry.fresh_template(
                base, env, ("phi", self.current_unit, p.src))
            self.emit_wf(env, tphi, k.span, "LQ-CHK-CTX-LETIF")
            if isinstance(t1, RBase) and not isinstance(t1.base, BBot):
                self.sub(env1, selfify(t1, TVar(p.left)), tphi, k.span,
                         "LQ-CHK-CTX-LETIF")
            if isinstance(t2, RBase) and not isinstance(t2.base, BBot):
                self.sub(env2, selfify(t2, TVar(p.right)), tphi, k.span,
                         "LQ-CHK-CTX-LETIF")
            joins.append((p.phi, tphi))
        env_out = env
        for n, t in joins:
            env_out = self._bind(env_out, n, t)
        return self.check_ctx(env_out, k.rest)

    def _join_base(self, t1: RType, t2: RType, span) -> Base:
        b1 = t1.base if isinstance(t1, RBase) else None
        b2 = t2.base if isinstance(t2, RBase) else None
        if b1 is None or b2 is None:
            self.abort(span, "LQ-CHK-CTX-LETIF",
                       "cannot join function-typed branches")
        if isinstance(b1, BBot):
            return b2
        if isinstance(b2, BBot):
            return b1
        if _same_base(b1, b2):
            return b1
        if isinstance(b1, BClass) and isinstance(b2, BClass):
            if self.classes.is_subclass(b1.name, b2.name):
                return b2
            if self.classes.is_subclass(b2.name, b1.name):
                return b1
        self.abort(span, "LQ-CHK-CTX-LETIF",
                   f"branches join values of incompatible base types"
                   f" {base_str(b1)} and {base_str(b2)} (annotate the"
                   " variable per overload if this is an overloaded"
                   " function)")

    def _check_letwhile(self, env: TypeEnv, k: KLetWhile) -> TypeEnv:
        env_phi = env
        templates: dict = {}
        for p in k.phis:
            t_init = env.lookup(p.init)
            if t_init is None:
                self.abort(k.span, "LQ-CHK-CTX-LETIF",
                           f"loop input {p.init} unbound")
            base = t_init.base if isinstance(t_init, RBase) else None
            if base is None:
                self.abort(k.span, "LQ-CHK-CTX-LETIF",
                           "loop joins a function-typed variable")
            tphi = self.registry.fresh_template(
                base, env, ("phi", self.current_unit, p.src))
            self.emit_wf(env, tphi, k.span, "LQ-CHK-CTX-LETIF")
            templates[p.phi] = tphi
            env_phi = self._bind(env_phi, p.phi, tphi)
            # entry constraint, under the environment before the loop
            self.sub(env, selfify(t_init, TVar(p.init)), tphi, k.span,
                     "LQ-CHK-CTX-LETIF")
        env_g, grd = self._check_cond(env_phi, k.cond)
        env1 = self.check_ctx(env_g.guard(PAtom(TVar(grd))), k.body_ctx)
        for p in k.phis:
            t_next = env1.lookup(p.next)
            if t_next is None:
                self.abort(k.span, "LQ-CHK-CTX-LETIF",
                           f"loop back-edge {p.next} unbound")
            if isinstance(t_next, RBase) and not isinstance(t_next.base,
                                                            BBot):
                self.sub(env1, selfify(t_next, TVar(p.next)),
                         templates[p.phi], k.span, "LQ-CHK-CTX-LETIF")
        # after the loop: the guard is false
        return self.check_ctx(env_g.guard(PNot(PAtom(TVar(grd)))), k.rest)


# ---------------------------------------------------------------------------
# helpers


def _const_type(v) -> RType:
    if v is UNDEFINED or v is NULL:
        return trivially_refine(base_of_value(v))
    return RBase(base_of_value(v), p_eq(TValueVar(), TConst(v)))


def _same_base(b1: Base, b2: Base) -> bool:
    if isinstance(b1, BPrim) and isinstance(b2, BPrim):
        return b1.name == b2.name
    if isinstance(b1, BClass) and isinstance(b2, BClass):
        return b1.name == b2.name
    if isinstance(b1, BVar) and isinstance(b2, BVar):
        return b1.name == b2.name
    return False


def _selfification_witness(t: RType) -> Optional[Term]:
    if not isinstance(t, RBase):
        return None
    for c in conjuncts_of(t.pred):
        if isinstance(c, PAtom) and isinstance(c.term, TBuiltin) and \
                c.term.op == "eq" and isinstance(c.term.args[0], TValueVar):
            return c.term.args[1]
    return None


def _package(env: TypeEnv, inner: TypeEnv, t: RType) -> RType:
    """Existentially package around t the bindings that `inner` adds to
    `env`, folding its guards into t."""
    for item in reversed(inner.items[len(env.items):]):
        if isinstance(item, Guard):
            t = strengthen(t, item.pred)
        else:
            t = RExists(item.name, item.rtype, t)
    return t


def _unify_bases(param: RType, arg: RType, tyvars: set, inst: dict):
    param, arg = exists_core(param), exists_core(arg)
    if isinstance(param, RBase) and isinstance(arg, RBase):
        pb, ab = param.base, arg.base
        if isinstance(pb, BVar) and pb.name in tyvars:
            if pb.name not in inst and not isinstance(ab, BBot):
                inst[pb.name] = ab
            return
        if isinstance(pb, BArr) and isinstance(ab, BArr):
            _unify_bases(pb.elem, ab.elem, tyvars, inst)
        return
    if isinstance(param, RFun) and isinstance(arg, RFun):
        for (_, p), (_, a) in zip(param.params, arg.params):
            _unify_bases(p, a, tyvars, inst)
        if param.ret is not None and arg.ret is not None:
            _unify_bases(param.ret, arg.ret, tyvars, inst)

