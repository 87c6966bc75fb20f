"""Validity checking for the decidable refinement logic.

The internal backend negates the query, walks the boolean structure, and
refutes every branch with congruence closure plus Fourier-Motzkin; a
branch it cannot refute must produce a concrete verified countermodel to
answer Invalid, otherwise the verdict is Unknown.  Valid answers are
therefore sound, and Invalid answers carry a real model.

The external backend serializes the query to SMT-LIB2 and asks a solver
subprocess."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..semantics.values import ARITH, StuckError
from ..syntax import Pred, pred_str
from .euf import CongruenceClosure
from .fm import solve as fm_solve
from .normal import (
    EufLit, LinCmp, NormError, Skel, build_formula, const_fold, fold_pred,
)

__all__ = ["Query", "Verdict", "SolverConfig", "check_valid", "const_fold",
           "emit_smtlib"]


@dataclass(frozen=True)
class Query:
    sorts: tuple  # tuple[(name, Sort)], sorted
    hyp: Pred
    goal: Pred

    @staticmethod
    def make(sorts: dict, hyp: Pred, goal: Pred) -> "Query":
        return Query(tuple(sorted(sorts.items(), key=lambda kv: kv[0])),
                     hyp, goal)

    def sort_map(self) -> dict:
        return dict(self.sorts)

    def key(self) -> str:
        return f"{self.sorts}|{pred_str(self.hyp)}|{pred_str(self.goal)}"


@dataclass
class Verdict:
    status: str  # "valid" | "invalid" | "unknown"
    model: Optional[str] = None
    reason: Optional[str] = None

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"


@dataclass
class SolverConfig:
    backend: str = "internal"  # "internal" | "external"
    command: Optional[str] = None
    timeout_ms: int = 10_000

    _cache: dict = field(default_factory=dict, repr=False)


def check_valid(q: Query, config: Optional[SolverConfig] = None) -> Verdict:
    config = config or SolverConfig()
    key = (config.backend, q.key())
    hit = config._cache.get(key)
    if hit is not None:
        return hit
    if config.backend == "external":
        from .smtlib import check_external
        v = check_external(q, config)
    else:
        v = _check_internal(q)
    config._cache[key] = v
    return v


# ---------------------------------------------------------------------------
# Internal backend


_MAX_BRANCHES = 4096


def _check_internal(q: Query) -> Verdict:
    sorts = q.sort_map()
    try:
        hyp = fold_pred(q.hyp)
        goal = fold_pred(q.goal)
        f_hyp = build_formula(hyp, sorts, True)
        f_ngoal = build_formula(goal, sorts, False)
    except NormError as e:
        return Verdict("unknown", reason=str(e))
    formula = ("and", [f_hyp, f_ngoal])
    unknown_reason = None
    count = 0
    for lits in _branches(formula):
        count += 1
        if count > _MAX_BRANCHES:
            return Verdict("unknown", reason="boolean branch limit exceeded")
        r = _theory_check(lits)
        if r[0] == "unsat":
            continue
        if r[0] == "sat":
            return Verdict("invalid", model=r[1])
        unknown_reason = r[1]
    if unknown_reason is not None:
        return Verdict("unknown", reason=unknown_reason)
    return Verdict("valid")


def _branches(f):
    kind = f[0]
    if kind == "true":
        yield []
        return
    if kind == "false":
        return
    if kind == "lit":
        yield [f[1]]
        return
    if kind == "or":
        for sub in f[1]:
            yield from _branches(sub)
        return
    if kind == "and":
        def product(parts):
            if not parts:
                yield []
                return
            for head in _branches(parts[0]):
                for tail in product(parts[1:]):
                    yield head + tail
        yield from product(f[1])
        return
    raise AssertionError(kind)


def _theory_check(lits: list) -> tuple:
    # split integer disequalities into strict cases
    ne_lits = [l for l in lits if isinstance(l, LinCmp) and l.op == "ne"]
    base = [l for l in lits if not (isinstance(l, LinCmp) and l.op == "ne")]
    if ne_lits:
        reasons = []
        for signs in itertools.product((1, -1), repeat=len(ne_lits)):
            case = list(base)
            for lit, sg in zip(ne_lits, signs):
                coeffs = tuple((k, sg * c) for k, c in lit.coeffs)
                case.append(LinCmp("lt", coeffs, sg * lit.const))
            r = _theory_check_conj(case)
            if r[0] == "sat":
                return r
            if r[0] == "unknown":
                reasons.append(r[1])
        if reasons:
            return ("unknown", reasons[0])
        return ("unsat",)
    return _theory_check_conj(base)


def _theory_check_conj(lits: list) -> tuple:
    cc = CongruenceClosure()
    arith: list = []
    for lit in lits:
        if isinstance(lit, EufLit):
            cc.assert_lit(lit)
        else:
            for k, _ in lit.coeffs:
                cc.add(k)
            arith.append(lit)
    if not cc.close():
        return ("unsat",)
    # constant propagation through interpreted arithmetic applications
    # (so products over pinned operands become pinned themselves)
    for lit in arith:
        if lit.op == "eq" and len(lit.coeffs) == 1 and \
                lit.coeffs[0][1] == 1 and lit.const.denominator == 1:
            key = lit.coeffs[0][0]
            cc.add(key)
            cc.merge(key, Skel("const", int(-lit.const), (), "int"))
    if not cc.close():
        return ("unsat",)
    changed = True
    while changed:
        changed = False
        for t in list(cc.terms):
            if t.kind != "app" or not _interpreted(t):
                continue
            vals = []
            for a in t.args:
                v = _class_const(cc, a)
                if v is None:
                    break
                vals.append(v)
            else:
                sem = _eval_interp(t, vals)
                if sem is None:
                    continue
                cs = Skel("const", sem, (), "int")
                if t in cc.terms and cs in cc.terms and \
                        cc.find(t) == cc.find(cs):
                    continue
                cc.merge(t, cs)
                changed = True
        if cc.conflict or not cc.close():
            return ("unsat",)
    rows = []
    for lit in arith:
        coeffs = dict(lit.coeffs)
        if lit.op == "eq":
            rows.append((coeffs, -lit.const, "eq"))
        elif lit.op == "le":
            rows.append((coeffs, -lit.const, "le"))
        elif lit.op == "lt":
            rows.append((coeffs, -lit.const, "lt"))
        else:
            raise AssertionError(lit.op)
    for a, b in cc.int_equalities():
        coeffs = _skel_linear(a, 1)
        for k, c in _skel_linear(b, -1).items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + c
        const = coeffs.pop("%const", Fraction(0))
        coeffs = {k: c for k, c in coeffs.items() if c != 0}
        rows.append((coeffs, -const, "eq"))
    r = fm_solve(rows)
    if r[0] == "unsat":
        return ("unsat",)
    model = r[1]
    return _verify_model(lits, cc, model)


def _skel_linear(sk: Skel, sign: int) -> dict:
    """Expand additive skeleton structure into linear coefficients so
    equalities discovered by congruence feed arithmetic precisely."""
    if sk.kind == "const" and isinstance(sk.head, int) and \
            not isinstance(sk.head, bool):
        return {"%const": Fraction(sign * sk.head)}
    if sk.kind == "app" and sk.head == "add":
        out = _skel_linear(sk.args[0], sign)
        for k, c in _skel_linear(sk.args[1], sign).items():
            out[k] = out.get(k, Fraction(0)) + c
        return out
    if sk.kind == "app" and sk.head == "sub":
        out = _skel_linear(sk.args[0], sign)
        for k, c in _skel_linear(sk.args[1], -sign).items():
            out[k] = out.get(k, Fraction(0)) + c
        return out
    return {sk: Fraction(sign)}


def _verify_model(lits: list, cc: CongruenceClosure, model: dict) -> tuple:
    """Check the Fourier-Motzkin point really satisfies every literal once
    uninterpreted classes get concrete values; only then report sat."""
    values: dict = {}
    class_vals: dict = {}
    fresh = itertools.count(10_000_019, 7919)

    def value_of(sk: Skel):
        if sk in values:
            return values[sk]
        if sk.kind == "const":
            values[sk] = sk.head
            return sk.head
        rep = cc.find(sk) if sk in cc.terms else sk
        if rep in class_vals:
            values[sk] = class_vals[rep]
            return class_vals[rep]
        v = model.get(sk)
        if v is None and sk in cc.terms:
            for member in cc.classes().get(rep, []):
                if member in model:
                    v = model[member]
                    break
                if member.kind == "const":
                    v = member.head
                    break
        if v is None and not _interpreted(sk):
            v = next(fresh) if sk.sort == "int" else f"@{next(fresh)}"
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise _NonIntegral()
            v = int(v)
        if _interpreted(sk):
            # interpreted arithmetic must agree with its argument values
            sem = _eval_interp(sk, [value_of(a) for a in sk.args])
            if sem is None or (v is not None and v != sem):
                raise _Mismatch(str(sk))
            v = sem
        class_vals[rep] = v
        values[sk] = v
        return v

    try:
        for lit in lits:
            if isinstance(lit, EufLit):
                v1, v2 = value_of(lit.t1), value_of(lit.t2)
                if (v1 == v2) != lit.eq:
                    return ("unknown", f"candidate model unverified: {lit}")
            else:
                acc = Fraction(lit.const)
                for k, c in lit.coeffs:
                    v = value_of(k)
                    if not isinstance(v, int):
                        return ("unknown",
                                f"non-numeric valuation in: {lit}")
                    acc += c * v
                ok = {"le": acc <= 0, "lt": acc < 0, "eq": acc == 0,
                      "ne": acc != 0}[lit.op]
                if not ok:
                    return ("unknown", f"candidate model unverified: {lit}")
    except _NonIntegral:
        return ("unknown", "rational-only countermodel (integrality gap)")
    except _Mismatch as e:
        return ("unknown", f"candidate model disagrees with arithmetic:"
                           f" {e}")
    sketch = ", ".join(
        f"{k} = {v}" for k, v in sorted(
            ((str(k), v) for k, v in values.items() if k.kind != "const"),
            key=lambda kv: kv[0]))
    return ("sat", sketch or "trivial model")


class _NonIntegral(Exception):
    pass


class _Mismatch(Exception):
    pass


def _class_const(cc: CongruenceClosure, t: Skel):
    # a class holds at most one constant, and it is the representative
    if t not in cc.terms:
        return None
    rep = cc.find(t)
    if rep.kind == "const" and isinstance(rep.head, int) and \
            not isinstance(rep.head, bool):
        return rep.head
    return None


# interpreted Skel heads -> ARITH operators; products print as "*" in
# countermodels
_INTERP = {"*": "mul", "add": "add", "sub": "sub", "div": "div",
           "mod": "mod"}


def _interpreted(sk: Skel) -> bool:
    return sk.kind == "app" and sk.head in _INTERP


def _eval_interp(sk: Skel, args: list):
    if not all(isinstance(a, int) and not isinstance(a, bool)
               for a in args):
        return None
    try:
        return ARITH[_INTERP[sk.head]](*args)
    except StuckError:
        return None


def emit_smtlib(q: Query) -> str:
    from .smtlib import emit
    return emit(q)
