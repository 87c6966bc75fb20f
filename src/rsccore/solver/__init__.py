"""Validity checking for the decidable refinement logic.

The internal backend negates the query, walks the boolean structure, and
refutes every branch with congruence closure plus Fourier-Motzkin; a
branch it cannot refute must produce a concrete verified countermodel to
answer Invalid, otherwise the verdict is Unknown.  Valid answers are
therefore sound, and Invalid answers carry a real model.  A config
lowers each hypothesis to its branches once and checks every goal asked
under it against them: each hypothesis branch closes its own literals
once, and each goal branch extends a copy of that context with its own;
`filter_valid` asks a batch of goals under one hypothesis and does not
ask a goal that an earlier countermodel of the batch already refutes.

The external backend serializes the query to SMT-LIB2 and asks a solver
subprocess."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..semantics.values import ARITH, StuckError
from ..syntax import PAnd, Pred
from .euf import CongruenceClosure
from .fm import solve as fm_solve, table as fm_table
from .normal import (
    EufLit, LinCmp, NormError, Skel, build_formula, const_fold, fold_pred,
)

__all__ = ["Query", "Verdict", "SolverConfig", "check_valid", "filter_valid",
           "const_fold", "emit_smtlib"]


@dataclass(frozen=True)
class Query:
    sorts: tuple  # tuple[(name, Sort)], sorted
    hyp: Pred
    goal: Pred

    @staticmethod
    def make(sorts: dict, hyp: Pred, goal: Pred) -> "Query":
        return Query.per_goal(sorts, hyp, [goal])[0]

    @staticmethod
    def per_goal(sorts: dict, hyp: Pred, goals: list) -> list:
        """One query for each goal, all under one hypothesis."""
        table = tuple(sorted(sorts.items(), key=lambda kv: kv[0]))
        return [Query(table, hyp, goal) for goal in goals]

    def sort_map(self) -> dict:
        return dict(self.sorts)


@dataclass
class Verdict:
    status: str  # "valid" | "invalid" | "unknown"
    model: Optional[str] = None
    reason: Optional[str] = None
    # an internal Invalid answer's checked countermodel: the value of each
    # non-constant solver term its literals read, subterms included;
    # `model` renders it, leaving out the terms in `hidden`
    valuation: Optional[dict] = None
    hidden: frozenset = frozenset()

    @staticmethod
    def countermodel(valuation: dict,
                     hidden: frozenset = frozenset()) -> "Verdict":
        sketch = ", ".join(f"{k} = {v}" for k, v in sorted(
            ((str(k), v) for k, v in valuation.items() if k not in hidden),
            key=lambda kv: kv[0]))
        return Verdict("invalid", model=sketch or "trivial model",
                       valuation=valuation, hidden=hidden)

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"


@dataclass
class SolverConfig:
    backend: str = "internal"  # "internal" | "external"
    command: Optional[str] = None
    timeout_ms: int = 10_000

    # (sorts, hyp) -> _Hypothesis; a config's backend is fixed at
    # construction
    _hypotheses: dict = field(default_factory=dict, repr=False)
    # hypothesis conjunct -> [(the sort entries its lowering read, the
    # lowered formula)]
    _conjuncts: dict = field(default_factory=dict, repr=False)


@dataclass
class _Hypothesis:
    """One hypothesis under one sort table, with the verdict given for
    each goal asked under it.  The internal backend lowers it once, to at
    most _MAX_BRANCHES + 1 boolean branches, or to the reason lowering
    failed."""

    sorts: dict
    branches: list = field(default_factory=list)  # [_Branch]
    error: Optional[str] = None
    verdicts: dict = field(default_factory=dict)  # goal -> Verdict
    # goal -> its negated lowering, made by filter_valid for the
    # _check_internal run that follows
    lowered: dict = field(default_factory=dict)


def _context(q: Query, config: SolverConfig) -> _Hypothesis:
    key = (q.sorts, q.hyp)
    h = config._hypotheses.get(key)
    if h is None:
        h = _Hypothesis(q.sort_map())
        if config.backend != "external":
            try:
                h.branches = [_Branch(b) for b in _lower_hypothesis(
                    q.hyp, h.sorts, config._conjuncts)]
            except NormError as e:
                h.error = str(e)
        config._hypotheses[key] = h
    return h


def check_valid(q: Query, config: Optional[SolverConfig] = None) -> Verdict:
    config = config or SolverConfig()
    h = _context(q, config)
    v = h.verdicts.get(q.goal)
    if v is None:
        if config.backend == "external":
            from .smtlib import check_external
            v = check_external(q, config)
        else:
            v = _check_internal(h, q.goal)
        h.verdicts[q.goal] = v
    return v


def filter_valid(queries: list, config: Optional[SolverConfig] = None) -> list:
    """The verdict of each query, in order, for queries that share one
    hypothesis and sort table.  A goal that the checked countermodel of an
    earlier Invalid verdict in the batch refutes is not valid, so it is
    not asked: its entry is None, and the config keeps no verdict for it.
    Each negated goal is lowered at most once."""
    config = config or SolverConfig()
    h = _context(queries[0], config) if queries else None
    out: list = []
    refuters: list = []  # valuations of the batch's Invalid verdicts
    for q in queries:
        if refuters and q.goal not in h.verdicts:
            ngoal = _negated_goal(q.goal, h.sorts)
            if not isinstance(ngoal, str) and \
                    any(_refutes(m, ngoal) for m in refuters):
                out.append(None)
                continue
            h.lowered[q.goal] = ngoal
        v = check_valid(q, config)
        if v.valuation is not None:
            refuters.append(v.valuation)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Internal backend


_MAX_BRANCHES = 4096


def _lower_hypothesis(hyp: Pred, sorts: dict, lowered: dict) -> list:
    """The branches of `hyp`, after folding, from the lowering of each of
    its conjuncts; _MAX_BRANCHES + 1 of them are all that a check can use.
    `lowered` keeps each conjunct's lowering, made again only under a sort
    table that differs on a symbol the lowering read."""
    parts = []
    for p in hyp.conjuncts if isinstance(hyp, PAnd) else (hyp,):
        made = lowered.setdefault(p, [])
        for reads, f in made:
            if all(sorts.get(name) == s for name, s in reads):
                break
        else:
            seen = _SortReads(sorts)
            f = build_formula(fold_pred(p), seen, True)
            made.append((tuple(seen.read.items()), f))
        parts.append(f)
    return list(itertools.islice(_branches(("and", parts)),
                                 _MAX_BRANCHES + 1))


class _SortReads:
    """A sort table that records each entry read from it."""

    def __init__(self, sorts: dict):
        self.sorts = sorts
        self.read: dict = {}

    def __contains__(self, name) -> bool:
        return name in self.sorts

    def __getitem__(self, name):
        s = self.read[name] = self.sorts[name]
        return s


def _negated_goal(goal: Pred, sorts: dict):
    """The branches of the negated goal, after folding, or the reason it
    does not lower."""
    try:
        f = build_formula(fold_pred(goal), sorts, False)
    except NormError as e:
        return str(e)
    return list(itertools.islice(_branches(f), _MAX_BRANCHES + 1))


def _check_internal(h: _Hypothesis, goal: Pred) -> Verdict:
    """Refute every branch of the hypothesis joined with every branch of
    the negated goal."""
    if h.error is not None:
        return Verdict("unknown", reason=h.error)
    ngoal = h.lowered.pop(goal, None)
    if ngoal is None:
        ngoal = _negated_goal(goal, h.sorts)
    if isinstance(ngoal, str):
        return Verdict("unknown", reason=ngoal)
    unknown_reason = None
    combos = itertools.product(h.branches, ngoal)
    for count, (hb, gb) in enumerate(combos, 1):
        if count > _MAX_BRANCHES:
            return Verdict("unknown", reason="boolean branch limit exceeded")
        r = _theory_check(hb, gb)
        if r[0] == "unsat":
            continue
        if r[0] == "sat":
            return Verdict.countermodel(*r[1:])
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
        # the first _MAX_BRANCHES + 1 combinations, all the caller takes,
        # use no conjunct branch past that index
        parts = [list(itertools.islice(_branches(sub), _MAX_BRANCHES + 1))
                 for sub in f[1]]
        for combo in itertools.product(*parts):
            yield [lit for branch in combo for lit in branch]
        return
    raise AssertionError(kind)


def _is_ne(lit) -> bool:
    return isinstance(lit, LinCmp) and lit.op == "ne"


class _Branch:
    """One branch of a hypothesis, the shared prefix of every theory check
    made under it: its integer disequalities (`ne`), its other literals
    (`lits`) and, prepared on first use, the context those make, which
    each goal branch extends: their congruence closure, closed and with
    constants propagated (None when they conflict), and their tightened
    arithmetic rows."""

    __slots__ = ("lits", "ne", "_cc", "_rows")

    def __init__(self, lits: list):
        self.ne = [l for l in lits if _is_ne(l)]
        self.lits = [l for l in lits if not _is_ne(l)]
        self._rows = None

    def context(self) -> tuple:
        if self._rows is None:
            cc = CongruenceClosure()
            arith = _extend(cc, self.lits)
            self._cc = cc if arith is not None else None
            self._rows = fm_table(_rows(arith or []))
        return self._cc, self._rows


def _theory_check(hb: _Branch, gb: list) -> tuple:
    """Check a hypothesis branch joined with a goal branch, splitting
    their integer disequalities into strict cases, the hypothesis's
    first."""
    if hb.context()[0] is None:
        return ("unsat",)
    ne_lits = hb.ne + [l for l in gb if _is_ne(l)]
    base = [l for l in gb if not _is_ne(l)]
    if ne_lits:
        reasons = []
        for signs in itertools.product((1, -1), repeat=len(ne_lits)):
            case = list(base)
            for lit, sg in zip(ne_lits, signs):
                coeffs = tuple((k, sg * c) for k, c in lit.coeffs)
                case.append(LinCmp("lt", coeffs, sg * lit.const))
            r = _theory_check_conj(hb, case)
            if r[0] == "sat":
                return r
            if r[0] == "unknown":
                reasons.append(r[1])
        if reasons:
            return ("unknown", reasons[0])
        return ("unsat",)
    return _theory_check_conj(hb, base)


def _theory_check_conj(hb: _Branch, lits: list) -> tuple:
    """Check the prepared context of `hb` extended by `lits`, which hold
    no disequality, on a copy of its closure."""
    cc, prepared = hb.context()
    cc = cc.copy()
    arith = _extend(cc, lits)
    if arith is None:
        return ("unsat",)
    rows = _rows(arith)
    for a, b in cc.int_equalities():
        coeffs = _skel_linear(a, 1)
        for k, c in _skel_linear(b, -1).items():
            coeffs[k] = coeffs.get(k, 0) + c
        const = coeffs.pop("%const", 0)
        coeffs = {k: c for k, c in coeffs.items() if c != 0}
        rows.append((coeffs, -const, "eq"))
    r = fm_solve(rows, prepared)
    if r[0] == "unsat":
        return ("unsat",)
    return _verify_model(hb.lits + lits, cc, r[1])


def _extend(cc: CongruenceClosure, lits: list) -> Optional[list]:
    """Assert `lits` into `cc`, close it and propagate constants through
    interpreted arithmetic applications (so products over pinned operands
    become pinned themselves).  The arithmetic literals of `lits`, or
    None on a conflict."""
    arith: list = []
    for lit in lits:
        if isinstance(lit, EufLit):
            cc.assert_lit(lit)
        else:
            for k, _ in lit.coeffs:
                cc.add(k)
            arith.append(lit)
    if not cc.close():
        return None
    for lit in arith:
        if lit.op == "eq" and len(lit.coeffs) == 1 and \
                lit.coeffs[0][1] == 1:
            key = lit.coeffs[0][0]
            cc.add(key)
            cc.merge(key, Skel("const", -lit.const, (), "int"))
    if not cc.close():
        return None
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
            return None
    return arith


def _rows(arith: list) -> list:
    """Fourier-Motzkin rows of eq/le/lt literals."""
    return [(dict(lit.coeffs), -lit.const, lit.op) for lit in arith]


def _skel_linear(sk: Skel, sign: int) -> dict:
    """Expand additive skeleton structure into linear coefficients so
    equalities discovered by congruence feed arithmetic precisely."""
    if sk.kind == "const" and isinstance(sk.head, int) and \
            not isinstance(sk.head, bool):
        return {"%const": sign * sk.head}
    if sk.kind == "app" and sk.head == "add":
        out = _skel_linear(sk.args[0], sign)
        for k, c in _skel_linear(sk.args[1], sign).items():
            out[k] = out.get(k, 0) + c
        return out
    if sk.kind == "app" and sk.head == "sub":
        out = _skel_linear(sk.args[0], sign)
        for k, c in _skel_linear(sk.args[1], -sign).items():
            out[k] = out.get(k, 0) + c
        return out
    return {sk: sign}


def _verify_model(lits: list, cc: CongruenceClosure, model: dict) -> tuple:
    """Check the Fourier-Motzkin point really satisfies every literal once
    uninterpreted classes get concrete values, and that those values make
    every uninterpreted function a function; only then report sat, with
    the value of each non-constant term the literals read."""
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
            try:
                if not _holds(lit, value_of):
                    return ("unknown", f"candidate model unverified: {lit}")
            except _NonNumeric:
                return ("unknown", f"non-numeric valuation in: {lit}")
        shown = set(values)
        clash = _congruence_clash(lits, value_of)
    except _NonIntegral:
        return ("unknown", "rational-only countermodel (integrality gap)")
    except _Mismatch as e:
        return ("unknown", f"candidate model disagrees with arithmetic:"
                           f" {e}")
    if clash is not None:
        return ("unknown", f"candidate model not congruent: {clash}")
    valuation = {k: v for k, v in values.items() if k.kind != "const"}
    # the argument values the congruence check adds are not shown
    return ("sat", valuation, frozenset(valuation.keys() - shown))


def _holds(lit, value) -> bool:
    """Whether `lit` is true when each term `t` it reads has the value
    `value(t)`; the one reading of a literal, for checking a countermodel
    and for evaluating another goal under it.  Raises _NonNumeric when an
    arithmetic term has no integer value."""
    if isinstance(lit, EufLit):
        return (value(lit.t1) == value(lit.t2)) == lit.eq
    acc = lit.const
    for k, c in lit.coeffs:
        v = value(k)
        if not isinstance(v, int):
            raise _NonNumeric()
        acc += c * v
    if lit.op == "le":
        return acc <= 0
    if lit.op == "lt":
        return acc < 0
    if lit.op == "eq":
        return acc == 0
    return acc != 0


def _congruence_clash(lits: list, value_of):
    """Two uninterpreted applications in `lits`, subterms included, of one
    head and sort whose arguments have equal sorts and values but whose
    own values differ, shown as text; None when there are none."""
    seen: set = set()
    results: dict = {}  # (head, sort, argument sorts and values) -> app

    def visit(sk: Skel):
        if sk.kind != "app" or sk in seen:
            return None
        seen.add(sk)
        for a in sk.args:
            clash = visit(a)
            if clash is not None:
                return clash
        if _interpreted(sk):
            return None
        # the sort is part of the key: True == 1 in Python
        key = (sk.head, sk.sort,
               tuple((a.sort, value_of(a)) for a in sk.args))
        other = results.setdefault(key, sk)
        if value_of(other) != value_of(sk):
            return (f"{other} = {value_of(other)}, "
                    f"{sk} = {value_of(sk)}")
        return None

    for lit in lits:
        terms = (lit.t1, lit.t2) if isinstance(lit, EufLit) else \
            (k for k, _ in lit.coeffs)
        for t in terms:
            clash = visit(t)
            if clash is not None:
                return clash
    return None


def _refutes(valuation: dict, ngoal: list) -> bool:
    """Whether `valuation` makes every literal of some branch of a negated
    goal true, reading only terms it gives a value."""
    def value(sk: Skel):
        return sk.head if sk.kind == "const" else valuation[sk]

    for branch in ngoal:
        try:
            if all(_holds(lit, value) for lit in branch):
                return True
        except (KeyError, _NonNumeric):  # KeyError: a term without a value
            pass
    return False


class _NonIntegral(Exception):
    pass


class _Mismatch(Exception):
    pass


class _NonNumeric(Exception):
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
