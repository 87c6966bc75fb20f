"""Driver: typing rules over every declaration, constraint solving, and
the final verdict."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..infer import (
    KvarAssignment, KvarRegistry, default_qualifiers, solve, split_horn,
)
from ..logic import ClassTable, NameSupply, TypeEnv, WfViolation, wf_pred, wf_type
from ..solver import SolverConfig
from ..ssa import (
    SsaError, SsaErrors, SsaFunc, SsaTranslator, ssa_program, subst_expr,
)
from ..syntax import (
    BClass, ClassDecl, EConst, FuncDecl, P_TRUE, Program, RBase, RFun, RInter,
    RType, SourceSpan, exists_core, trivially_refine, walk_tree, with_field,
)
from .constraints import Constraint, Diagnostic
from .core import CheckAbort, Checker
from .ctor import CtorError, ctor_init_signature, ctor_rewrite
from .twophase import OverloadClone, two_phase_expand

__all__ = ["check_program", "class_diagnostic", "CheckResult", "Diagnostic",
           "Constraint"]


@dataclass
class CheckResult:
    verdict: str  # "verified" | "errors"
    diagnostics: list
    constraints: list
    clauses: list
    assignment: Optional[KvarAssignment]
    registry: KvarRegistry
    classes: Optional[ClassTable]
    program: Optional[Program]
    config: SolverConfig

    @property
    def ok(self) -> bool:
        return self.verdict == "verified"

    def errors(self) -> list:
        return [d for d in self.diagnostics if d.severity == "error"]


def _collect_strings(program: Program) -> list:
    bodies = [f.body for f in program.functions] + \
        [m.body for c in program.classes for m in c.methods] + [program.top]
    out: list = []
    for node in walk_tree([b for b in bodies if b is not None]):
        if isinstance(node, EConst) and isinstance(node.value, str) and \
                node.value not in out:
            out.append(node.value)
    return out


def class_diagnostic(program: Program, e: WfViolation) -> Diagnostic:
    """The diagnostic for a class hierarchy that `ClassTable` rejects."""
    return Diagnostic("error", SourceSpan(program.file, 0, 0, 1, 1), "CLASS",
                      e.reason)


def check_program(program: Program, config: Optional[SolverConfig] = None,
                  qualifiers: Optional[list] = None,
                  strict_unknown: bool = False) -> CheckResult:
    config = config or SolverConfig()
    diags: list[Diagnostic] = []
    registry = KvarRegistry()
    supply = NameSupply()

    def fail() -> CheckResult:
        return CheckResult("errors", diags, [], [], None, registry, None,
                           program, config)

    try:
        classes = ClassTable(program)
    except WfViolation as e:
        diags.append(class_diagnostic(program, e))
        return fail()

    checked_classes, ctor_inits, witnesses = _class_pass(program, classes,
                                                         supply, diags)
    if any(d.severity == "error" for d in diags):
        return fail()

    # two-phase expansion of intersection-typed functions
    check_clone = None
    clones: list[OverloadClone] = []
    check_funcs: list[FuncDecl] = []
    for f in program.functions:
        if isinstance(f.signature, RInter) and f.body is not None:
            check_clone = check_clone or _clone_check(
                program, classes, config, ctor_inits, witnesses)
            clones.extend(two_phase_expand(f, check_clone))
            check_funcs.append(FuncDecl(f.name, f.params, f.signature,
                                        None, f.span))
        else:
            check_funcs.append(f)
    for cl in clones:
        check_funcs.append(cl.decl)

    program2 = Program(program.aliases, checked_classes, check_funcs,
                       program.top, program.file)
    try:
        ssa2, theta2 = ssa_program(program2)
    except SsaErrors as errs:
        for e in errs.errors:
            diags.append(Diagnostic("error", e.span, "SSA", e.msg))
        return fail()

    checker = _checker(classes, registry, supply, config, ctor_inits,
                       witnesses, check_funcs, ssa2.functions)
    registry.note_strings(_collect_strings(program))

    # a failure inside an overload clone names its conjunct
    prefix = {cl.name: f"overload {cl.index} of {cl.base_name}: "
              for cl in clones}

    # -- functions ---------------------------------------------------------
    for f in check_funcs:
        sig = f.signature
        sf = ssa2.functions.get(f.name)
        if f.body is None or not isinstance(sig, RFun) or sf is None or \
                sf.body is None:
            continue
        t_body = _check_unit(checker, diags, f.name, TypeEnv(classes, supply),
                             sig, sf.body, f.span, prefix.get(f.name, ""))
        if sig.ret is None and t_body is not None:
            newsig = with_field(sig, "ret", _trivial_ret(t_body))
            f.signature = newsig
            checker.fn_sigs[f.name] = newsig

    # -- methods -----------------------------------------------------------
    for c in checked_classes:
        for m in c.methods:
            sm = ssa2.methods.get((c.name, m.name))
            if sm is None:
                continue
            checker._current_ctor = c.name if m.is_ctor else None
            env = TypeEnv(classes, supply).bind_raw(
                "this", trivially_refine(BClass(c.name)), raw_class=m.is_ctor)
            _check_unit(checker, diags, f"{c.name}.{m.name}", env,
                        m.signature,
                        sm.body, m.span, ret_rule=not m.is_ctor)
    checker._current_ctor = None

    # -- top level -----------------------------------------------------------
    if ssa2.top is not None:
        checker.current_unit = "<top>"
        env = TypeEnv(classes, supply)
        try:
            checker.check_expr(env, ssa2.top)
        except CheckAbort as a:
            diags.append(a.diag)

    diags.extend(checker.diags)

    # -- solve ---------------------------------------------------------------
    clauses = split_horn(checker.constraints)
    quals = default_qualifiers() + (qualifiers or [])
    assignment = None
    if not any(d.severity == "error" for d in diags):
        try:
            assignment, failures = solve(clauses, quals, registry, config,
                                         strict_unknown=strict_unknown)
        except WfViolation as e:
            diags.append(Diagnostic("error",
                                    SourceSpan(program.file, 0, 0, 1, 1),
                                    "SOLVE", e.reason))
            failures = []
        for fl in failures:
            why = fl.verdict.reason if fl.verdict.status == "unknown" else \
                (f"counterexample: {fl.verdict.model}"
                 if fl.verdict.model else "not valid")
            msg = "verification condition failed" if \
                fl.verdict.status == "invalid" else \
                "could not verify (solver unknown)"
            diags.append(Diagnostic("error", fl.clause.span, fl.clause.rule,
                                    f"{prefix.get(fl.clause.unit, '')}{msg}:"
                                    f" {why}",
                                    vc=fl.clause.describe()))

    diags.sort(key=lambda d: (d.span.file, d.span.line, d.span.col,
                              d.rule, d.message))
    verdict = "errors" if any(d.severity == "error" for d in diags) \
        else "verified"
    return CheckResult(verdict, diags, checker.constraints, clauses,
                       assignment, registry, classes, program2, config)


def _class_pass(program: Program, classes: ClassTable, supply: NameSupply,
                diags: list) -> tuple:
    """The class declarations' field types and invariants checked, and
    their constructors rewritten: (the classes to check, the constructor
    initializer signatures, the field witnesses).  Errors go to `diags`."""
    ctor_inits: dict = {}
    witnesses: dict = {}
    checked_classes: list[ClassDecl] = []
    for c in program.classes:
        env_this = TypeEnv(classes, supply).bind_raw(
            "this", trivially_refine(BClass(c.name)))
        for f in c.fields:
            for v in wf_type(env_this, f.rtype):
                diags.append(Diagnostic("error", f.span, "WF", v))
        for v in wf_pred(env_this, c.invariant, None):
            diags.append(Diagnostic("error", c.span, "WF", v))
        try:
            rewritten, wit = ctor_rewrite(c, classes)
            ctor_inits[c.name] = ctor_init_signature(classes, c.name)
        except (CtorError,) as e:
            diags.append(Diagnostic("error", e.span, "CTOR", e.msg))
            continue
        except WfViolation as e:
            diags.append(Diagnostic("error", c.span, "CTOR", e.reason))
            continue
        witnesses[c.name] = wit
        methods = [m for m in c.methods if not m.is_ctor] + [rewritten]
        checked_classes.append(ClassDecl(c.name, c.invariant, c.parent,
                                         c.fields, methods, c.span))
    return checked_classes, ctor_inits, witnesses


def _checker(classes: ClassTable, registry: KvarRegistry, supply: NameSupply,
             config: SolverConfig, ctor_inits: dict, witnesses: dict,
             functions: list, ssa_funcs: dict) -> Checker:
    """A checker of units that may call `functions`, the unannotated ones
    translated in `ssa_funcs`."""
    return Checker(classes, registry, supply, config, ctor_inits, witnesses,
                   {f.name: f.signature for f in functions},
                   {f.name: f for f in functions}, ssa_funcs)


def _clone_check(program: Program, classes: ClassTable, config: SolverConfig,
                 ctor_inits: dict, witnesses: dict) -> Callable:
    """Phase one's check of an overload clone (see `twophase`): the clone's
    body translated to SSA and checked as a unit, as a function is, with
    throwaway refinement variables and names; the spans of its SSA and
    structural errors."""
    translator = SsaTranslator(program)

    def translate(f: FuncDecl):
        return translator.ssa_body({p: p for p in [*f.params, "#argc"]},
                                   f.body)

    # the unannotated functions, which a call site checks (see
    # `Checker._check_closure_against`)
    closures: dict = {}
    for f in program.functions:
        if f.signature is None and f.body is not None:
            try:
                closures[f.name] = SsaFunc(f.name, f.params, translate(f), f)
            except SsaError:
                pass

    def check(decl: FuncDecl) -> list:
        try:
            body = translate(decl)
        except SsaError as e:
            return [e.span]
        supply = NameSupply()
        checker = _checker(classes, KvarRegistry(), supply, config, ctor_inits,
                           witnesses, program.functions, closures)
        checker.returns = decl.signature.ret
        diags: list = []
        _check_unit(checker, diags, decl.name, TypeEnv(classes, supply),
                    decl.signature, body, decl.span)
        return [d.span for d in checker.diags + diags]
    return check


def _check_unit(checker: Checker, diags: list, unit: str, env: TypeEnv,
                sig: RFun, body, span: SourceSpan, prefix: str = "",
                ret_rule: bool = True) -> Optional[RType]:
    """Check one function or method body against its signature: WF-SIG on
    the parameters and the result, the precondition as a guard, `#argc`,
    the body, then RET.  Returns the body's type, or None when a
    structural error aborted the unit (its diagnostic, message prefixed,
    goes to `diags`)."""
    checker.current_unit = unit
    try:
        for n, pt in sig.params:
            checker.emit_wf(env, pt, span, "WF-SIG")
            env = checker._bind(env, n, pt)
        if sig.ret is not None:
            checker.emit_wf(env, sig.ret, span, "WF-SIG")
        if sig.precond != P_TRUE:
            env = env.guard(sig.precond)
        body = subst_expr(body, {"#argc": EConst(len(sig.params), nid=0)})
        t_body = checker.check_expr(env, body)
        if sig.ret is not None and ret_rule:
            checker.sub(env, t_body, sig.ret, span, "RET")
        return t_body
    except CheckAbort as a:
        a.diag.message = prefix + a.diag.message
        diags.append(a.diag)
        return None


def _trivial_ret(t: RType) -> RType:
    t = exists_core(t)
    if isinstance(t, RBase):
        return trivially_refine(t.base)
    return t
