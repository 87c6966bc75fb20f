"""Liquid-type inference: refinement-variable templates, Horn splitting of
subtyping constraints, qualifier instantiation over each variable's scope,
and the monotone weakening fixpoint."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .frontend.types_parser import PLACEHOLDER, parse_qualifier_line
from .logic import TypeEnv, WfViolation, wf_pred
from .solver import Query, SolverConfig, Verdict, check_valid, filter_valid
from .syntax import (
    Base, P_TRUE, PAtom, PKvar, Pred, RBase, RType, TBuiltin, TConst,
    TUF, TValueVar, TVar, Term, conjuncts_of, p_and, pred_free_vars,
    pred_str, pred_subst, term_str,
)


@dataclass(frozen=True)
class Qualifier:
    name: str
    body: Pred  # predicate over the value variable and the placeholder

    def instantiate(self, t: Optional[Term]) -> Pred:
        if t is None:
            return self.body
        return pred_subst(self.body, {PLACEHOLDER: t})

    def has_placeholder(self) -> bool:
        return PLACEHOLDER in pred_free_vars(self.body)


def default_qualifiers() -> list:
    """The built-in qualifier prelude (reverse-engineered from the shapes
    of solutions the inference is expected to find)."""
    v = TValueVar()
    hole = TVar(PLACEHOLDER)
    lenh = TUF("len", (hole,))
    return [
        Qualifier("zeroLe", PAtom(TBuiltin("le", (TConst(0), v)))),
        Qualifier("zeroLt", PAtom(TBuiltin("lt", (TConst(0), v)))),
        Qualifier("ltVar", PAtom(TBuiltin("lt", (v, hole)))),
        Qualifier("leVar", PAtom(TBuiltin("le", (v, hole)))),
        Qualifier("eqVar", PAtom(TBuiltin("eq", (v, hole)))),
        Qualifier("ltLen", PAtom(TBuiltin("lt", (v, lenh)))),
        Qualifier("leLen", PAtom(TBuiltin("le", (v, lenh)))),
        Qualifier("eqLen", PAtom(TBuiltin("eq", (v, lenh)))),
    ]


def load_qualifier_file(path: str) -> list:
    out = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            pred = parse_qualifier_line(line, path, i)
            if pred in seen:
                continue
            seen.add(pred)
            out.append(Qualifier(f"user{i}", pred))
    return out


# ---------------------------------------------------------------------------
# Templates


@dataclass
class KvarInfo:
    kid: int
    base: Base
    scope: TypeEnv
    origin: tuple  # e.g. ("tyvar", fname, "A") | ("phi", fname, srcvar)


class KvarRegistry:
    def __init__(self):
        self.infos: dict[int, KvarInfo] = {}
        self._next = itertools.count(0)
        self.string_literals: list = []

    def fresh_template(self, base: Base, scope: TypeEnv,
                       origin: tuple = ("anon",)) -> RType:
        """A template type over a fresh refinement variable applied to the
        identity substitution of its scope (so later openings and
        re-bindings rename the application consistently)."""
        kid = next(self._next)
        self.infos[kid] = KvarInfo(kid, base, scope, origin)
        subst = [("v", TValueVar())]
        for name in scope.binding_names():
            t = scope.lookup(name)
            if isinstance(t, RBase):
                subst.append((name, TVar(name)))
        return RBase(base, PKvar(kid, tuple(subst)))

    def note_strings(self, lits) -> None:
        for s in lits:
            if s not in self.string_literals:
                self.string_literals.append(s)


# ---------------------------------------------------------------------------
# Horn clauses


@dataclass
class HornClause:
    hyp_pred: Pred
    hyp_kapps: list  # [(kid, subst dict)]
    head: tuple  # ("k", kid, subst dict) | ("p", Pred)
    sorts: dict
    span: object
    rule: str
    cid: int
    unit: str = ""

    def describe(self) -> str:
        hyps = [pred_str(self.hyp_pred)]
        hyps += [f"k{kid}{_subst_str(s)}" for kid, s in self.hyp_kapps]
        if self.head[0] == "k":
            h = f"k{self.head[1]}{_subst_str(self.head[2])}"
        else:
            h = pred_str(self.head[1])
        return " && ".join(hyps) + " => " + h


def _subst_str(s: dict) -> str:
    items = [f"{k}:={term_str(v)}" for k, v in sorted(s.items())
             if not (k == "v" and isinstance(v, TValueVar))]
    return f"[{', '.join(items)}]" if items else ""


def split_pred(p: Pred) -> tuple:
    """Separate a predicate into concrete conjuncts and refinement-variable
    applications."""
    concrete = []
    kapps = []
    for c in conjuncts_of(p):
        if isinstance(c, PKvar):
            kapps.append((c.kid, dict(c.subst)))
        else:
            concrete.append(c)
    return p_and(*concrete), kapps


def split_horn(constraints: list) -> list:
    """Subtyping constraints -> Horn clauses (one clause per head
    conjunct); well-formedness constraints contribute no clauses, their
    scopes were recorded at template creation."""
    out: list[HornClause] = []
    for c in constraints:
        if c.kind != "sub":
            continue
        env = c.env
        lhs, rhs = c.lhs, c.rhs
        hyp_embed, hyp_kapps = split_pred(env.embed())
        lhs_concrete, lhs_kapps = split_pred(lhs.pred)
        hyp = p_and(hyp_embed, lhs_concrete)
        kapps = hyp_kapps + lhs_kapps
        sorts = env.query_sorts(lhs.base)
        for conj in conjuncts_of(rhs.pred) or [P_TRUE]:
            if isinstance(conj, PKvar):
                head = ("k", conj.kid, dict(conj.subst))
            else:
                head = ("p", conj)
            out.append(HornClause(hyp, kapps, head, sorts, c.span, c.rule,
                                  c.cid, c.unit))
    return out


# ---------------------------------------------------------------------------
# Assignment and fixpoint


@dataclass
class KvarAssignment:
    quals: dict  # kid -> list[Pred] (conjunction semantics)

    def solution(self, kid: int) -> Pred:
        return p_and(*self.quals.get(kid, []))

    def to_json(self, registry: KvarRegistry) -> dict:
        out = {}
        for kid in sorted(self.quals):
            info = registry.infos[kid]
            out[f"k{kid}"] = {
                "origin": list(info.origin),
                "predicates": sorted(pred_str(q) for q in self.quals[kid]),
            }
        return out


class FixpointBoundError(RuntimeError):
    """The weakening fixpoint ran past its iteration bound."""


class SolveFailure:
    def __init__(self, clause: HornClause, verdict: Verdict):
        self.clause = clause
        self.verdict = verdict


def initial_assignment(registry: KvarRegistry, qualifiers: list) -> dict:
    """Every scope-respecting, well-sorted qualifier instantiation."""
    v = TValueVar()
    assign: dict[int, list] = {}
    for kid, info in sorted(registry.infos.items()):
        cands: list[Pred] = []
        seen: set = set()

        def keep(p: Pred):
            if p in seen:
                return
            if wf_pred(info.scope, p, info.base):
                return  # ill-sorted for this scope
            seen.add(p)
            cands.append(p)

        for q in qualifiers:
            if q.has_placeholder():
                for name in info.scope.binding_names():
                    keep(q.instantiate(TVar(name)))
            else:
                keep(q.instantiate(None))
        for lit in registry.string_literals:
            keep(PAtom(TBuiltin("eq", (TUF("ttag", (v,)), TConst(lit)))))
        assign[kid] = cands
    return assign


def _apply_kapp(assign: dict, kid: int, subst: dict) -> Pred:
    conj = p_and(*assign.get(kid, []))
    if subst:
        conj = pred_subst(conj, subst)
    return conj


def clause_queries(cl: HornClause, assign: dict, goals: list) -> list:
    """One query for each goal, under the clause's hypothesis with every
    refinement-variable application solved by `assign`."""
    parts = [cl.hyp_pred]
    for kid, subst in cl.hyp_kapps:
        parts.append(_apply_kapp(assign, kid, subst))
    return Query.per_goal(cl.sorts, p_and(*parts), goals)


def clause_query(cl: HornClause, assign: dict, goal: Pred) -> Query:
    return clause_queries(cl, assign, [goal])[0]


def solve(clauses: list, qualifiers: list, registry: KvarRegistry,
          config: Optional[SolverConfig] = None,
          strict_unknown: bool = False,
          trace: Optional[list] = None) -> tuple:
    """Monotone weakening to a fixpoint, then the ground-head check.
    Returns (KvarAssignment, [SolveFailure])."""
    config = config or SolverConfig()
    assign = initial_assignment(registry, qualifiers)

    # clauses are work items by position in khead; by_hyp maps a kvar to
    # the clauses reading it.  A weakened kvar re-queues only those: a
    # clause that merely weakens it too has already validated every goal
    # it still holds, under the same hypothesis.
    khead = [cl for cl in clauses if cl.head[0] == "k"]
    by_hyp: dict[int, list] = {}
    for i, cl in enumerate(khead):
        for kid, _ in cl.hyp_kapps:
            by_hyp.setdefault(kid, []).append(i)

    work = deque(range(len(khead)))
    queued = set(work)
    rounds = 0
    while work:
        rounds += 1
        i = work.popleft()
        queued.discard(i)
        cl = khead[i]
        _, kid, hsubst = cl.head
        current = assign.get(kid, [])
        goals = [pred_subst(q, hsubst) for q in current] if hsubst \
            else current
        kept = []
        queries = clause_queries(cl, assign, goals)
        for q, verdict in zip(current, filter_valid(queries, config)):
            if verdict is None:
                continue  # refuted by an earlier candidate's countermodel
            if verdict.status == "valid":
                kept.append(q)
            elif verdict.status == "unknown" and strict_unknown:
                raise WfViolation(
                    f"solver unknown during inference: {verdict.reason}")
        # kept is a sublist of current, so the assignment only shrinks
        if len(kept) < len(current):
            assign[kid] = kept
            if trace is not None:
                trace.append((cl.cid, kid, len(kept)))
            for dep in by_hyp.get(kid, []):
                if dep not in queued:
                    queued.add(dep)
                    work.append(dep)
        if rounds > 10_000:
            raise FixpointBoundError("fixpoint iteration bound exceeded")

    failures: list[SolveFailure] = []
    for cl in clauses:
        if cl.head[0] != "p":
            continue
        verdict = check_valid(clause_query(cl, assign, cl.head[1]), config)
        if verdict.status != "valid":
            failures.append(SolveFailure(cl, verdict))
    return KvarAssignment(assign), failures


def recheck_all(clauses: list, assignment: KvarAssignment,
                config: Optional[SolverConfig] = None) -> bool:
    """Post-hoc fixpoint soundness: every clause with a kvar head is valid
    under the final assignment."""
    config = config or SolverConfig()
    for cl in clauses:
        if cl.head[0] != "k":
            continue
        _, kid, hsubst = cl.head
        goal = _apply_kapp(assignment.quals, kid, hsubst)
        v = check_valid(clause_query(cl, assignment.quals, goal), config)
        if v.status == "invalid":
            return False
    return True


def preds_equivalent(env: TypeEnv, vee_base: Base, p1: Pred, p2: Pred,
                     config: Optional[SolverConfig] = None) -> bool:
    """Logical equivalence of two refinements under an environment, by
    mutual implication."""
    config = config or SolverConfig()
    sorts = env.query_sorts(vee_base)
    hyp = env.embed()
    q1 = Query.make(sorts, p_and(hyp, p1), p2)
    q2 = Query.make(sorts, p_and(hyp, p2), p1)
    return check_valid(q1, config).is_valid and \
        check_valid(q2, config).is_valid
