"""Liquid inference: templates, Horn splitting, the weakening fixpoint,
qualifier handling, and the brute-force weakest-solution oracle."""

import itertools

import pytest

from conftest import CORPUS, LOOP_K2, check, parse, parse_text

from rsccore.checker import check_program
from rsccore.infer import (
    KvarRegistry, default_qualifiers, load_qualifier_file, preds_equivalent,
    recheck_all, solve, split_horn,
)
from rsccore.logic import S_INT, ClassTable, NameSupply, TypeEnv
from rsccore.solver import Query, SolverConfig, check_valid, filter_valid
from rsccore.syntax import (
    BArr, B_NUM, PAtom, PKvar, RBase, TBuiltin, TConst, TUF, TValueVar,
    TVar, p_and, p_eq, pred_str, trivially_refine,
)


def _scope_env():
    ct = ClassTable()
    env = TypeEnv(ct, NameSupply())
    env = env.bind("a", trivially_refine(BArr(trivially_refine(B_NUM))))
    env = env.bind("x", trivially_refine(B_NUM))
    return env


def test_fresh_templates_are_distinct():
    reg = KvarRegistry()
    env = _scope_env()
    t1 = reg.fresh_template(B_NUM, env, ("phi", "f", "i"))
    t2 = reg.fresh_template(B_NUM, env, ("phi", "f", "r"))
    assert isinstance(t1.pred, PKvar) and isinstance(t2.pred, PKvar)
    assert t1.pred.kid != t2.pred.kid
    # identity substitution over the scope
    keys = [k for k, _ in t1.pred.subst]
    assert "v" in keys and "a" in keys and "x" in keys


def test_default_qualifier_shapes():
    quals = default_qualifiers()
    bodies = {pred_str(q.body) for q in quals}
    assert "0 <= v" in bodies
    assert "0 < v" in bodies
    assert any("v < len(" in b for b in bodies)
    assert any("v = len(" in b for b in bodies)


def test_qualifier_file_load_and_dedupe(tmp_path):
    f = tmp_path / "quals.txt"
    f.write_text("v < ★\n// a comment\nv < ★\n0 <= v + 1\n")
    quals = load_qualifier_file(str(f))
    assert len(quals) == 2


def test_split_horn_shapes():
    """A constraint with a kvar-typed binding in the environment yields a
    clause with the kvar in the hypothesis; a kvar on the right becomes a
    kvar head."""
    r = check(CORPUS / "minindex.rsc")
    assert r.verdict == "verified"
    heads = [cl for cl in r.clauses if cl.head[0] == "k"]
    hyps = [cl for cl in r.clauses if cl.hyp_kapps]
    grounds = [cl for cl in r.clauses if cl.head[0] == "p"]
    assert heads and hyps and grounds


def _kid_by_origin(result, pred):
    for kid, info in result.registry.infos.items():
        if pred(info.origin):
            return kid, info
    raise AssertionError("no kvar matches")


def _expected_idx(aname: str):
    v = TValueVar()
    return p_and(PAtom(TBuiltin("le", (TConst(0), v))),
                 PAtom(TBuiltin("lt", (v, TUF("len", (TVar(aname),))))))


def test_minindex_call_site_solution():
    """kappa_A solves to true and kappa_B to 0 <= v < len(a), up to
    logical equivalence."""
    r = check(CORPUS / "minindex.rsc")
    assert r.verdict == "verified"
    kid_a, info_a = _kid_by_origin(
        r, lambda o: o[:3] == ("tyvar", "minIndex", "A"))
    kid_b, info_b = _kid_by_origin(
        r, lambda o: o[:3] == ("tyvar", "minIndex", "B"))
    sol_a = r.assignment.solution(kid_a)
    assert preds_equivalent(info_a.scope, info_a.base, sol_a,
                            PAtom(TConst(True)), r.config)
    sol_b = r.assignment.solution(kid_b)
    assert preds_equivalent(info_b.scope, info_b.base, sol_b,
                            _expected_idx("a"), r.config)


def test_reduce_loop_invariant_solution():
    """The loop join for i: the strongest derivable invariant is
    0 <= v <= len(a) (the strict displayed form is unprovable at loop
    entry for empty arrays), and inside the loop -- where it is used --
    it is exactly 0 <= v < len(a).  The accumulator join is true."""
    r = check(CORPUS / "ssa_reduce.rsc")
    assert r.verdict == "verified"
    kid_i, info_i = _kid_by_origin(
        r, lambda o: o == ("phi", "reduce", "i0"))
    kid_r, info_r = _kid_by_origin(
        r, lambda o: o == ("phi", "reduce", "r0"))
    v = TValueVar()
    le_form = p_and(PAtom(TBuiltin("le", (TConst(0), v))),
                    PAtom(TBuiltin("le", (v, TUF("len", (TVar("a"),))))))
    sol_i = r.assignment.solution(kid_i)
    assert preds_equivalent(info_i.scope, info_i.base, sol_i, le_form,
                            r.config)
    # under the loop guard the solution is exactly the valid-index form
    guarded = info_i.scope.guard(PAtom(
        TBuiltin("lt", (v, TUF("len", (TVar("a"),))))))
    assert preds_equivalent(guarded, info_i.base, sol_i,
                            _expected_idx("a"), r.config)
    assert preds_equivalent(info_r.scope, info_r.base,
                            r.assignment.solution(kid_r),
                            PAtom(TConst(True)), r.config)


def test_fixpoint_soundness_post_hoc():
    r = check(CORPUS / "minindex.rsc")
    assert recheck_all(r.clauses, r.assignment, r.config)


def test_monotone_weakening_trace():
    from rsccore.frontend import parse_program
    from rsccore.infer import default_qualifiers
    p = parse(CORPUS / "ssa_reduce.rsc")
    r = check_program(p)
    # solve() asserts monotonicity internally; a verified program means the
    # fixpoint ran to completion without growth
    assert r.verdict == "verified"


def _clause_satisfied(cl, assign, config):
    from rsccore.infer import clause_query, _apply_kapp
    if cl.head[0] == "k":
        goal = _apply_kapp(assign, cl.head[1], cl.head[2])
    else:
        goal = cl.head[1]
    return check_valid(clause_query(cl, assign, goal), config).is_valid


def test_brute_force_weakest_solution_oracle():
    """On the minIndex constraint set, enumerate all subset assignments
    for the call-site kvars: every satisfying assignment is logically
    equivalent to the fixpoint result (the solution is unique up to
    equivalence, hence also the weakest)."""
    r = check(CORPUS / "minindex.rsc")
    assert r.verdict == "verified"
    kid_a, info_a = _kid_by_origin(
        r, lambda o: o[:3] == ("tyvar", "minIndex", "A"))
    kid_b, info_b = _kid_by_origin(
        r, lambda o: o[:3] == ("tyvar", "minIndex", "B"))
    config = r.config
    relevant = [cl for cl in r.clauses
                if any(k in (kid_a, kid_b) for k, _ in cl.hyp_kapps)
                or (cl.head[0] == "k" and cl.head[1] in (kid_a, kid_b))]
    assert relevant
    base = dict(r.assignment.quals)
    cand_a = r.assignment.quals[kid_a] + [
        q for q in _candidates(r, kid_a) if q not in r.assignment.quals[kid_a]]
    cand_b = r.assignment.quals[kid_b] + [
        q for q in _candidates(r, kid_b) if q not in r.assignment.quals[kid_b]]
    sat_assignments = []
    for bits_a in itertools.product((0, 1), repeat=len(cand_a)):
        for bits_b in itertools.product((0, 1), repeat=len(cand_b)):
            assign = dict(base)
            assign[kid_a] = [q for q, b in zip(cand_a, bits_a) if b]
            assign[kid_b] = [q for q, b in zip(cand_b, bits_b) if b]
            if all(_clause_satisfied(cl, assign, config)
                   for cl in relevant):
                sat_assignments.append(assign)
    assert sat_assignments, "the fixpoint solution itself must satisfy"
    fix_b = r.assignment.solution(kid_b)
    for assign in sat_assignments:
        sol_b = p_and(*assign[kid_b])
        assert preds_equivalent(info_b.scope, info_b.base, sol_b, fix_b,
                                config), \
            "a satisfying assignment differs from the fixpoint: " + \
            pred_str(sol_b)


def _candidates(result, kid):
    from rsccore.infer import initial_assignment, default_qualifiers
    init = initial_assignment(result.registry, default_qualifiers())
    return init[kid]


def test_strict_unknown_flag():
    from conftest import parse
    p = parse(CORPUS / "field.rsc")
    r = check_program(p, strict_unknown=True)
    assert r.verdict == "errors"
    assert any(d.rule == "SOLVE" or "unknown" in d.message.lower()
               for d in r.errors())


def test_candidates_a_countermodel_drops_are_not_valid(monkeypatch):
    """Every candidate that the fixpoint drops without a query, because a
    countermodel of its visit refutes it, is not valid when asked alone
    with a fresh config; on the corpus and on a loop program."""
    from rsccore import infer

    refute = infer.filter_valid
    dropped = []

    def recorded(queries, config=None):
        verdicts = refute(queries, config)
        dropped.extend(q for q, v in zip(queries, verdicts) if v is None)
        return verdicts

    monkeypatch.setattr(infer, "filter_valid", recorded)
    for path in sorted(CORPUS.glob("*.rsc")):
        check_program(parse(path), SolverConfig())
    from_corpus = len(dropped)
    assert check_program(parse_text(LOOP_K2), SolverConfig()).verdict == \
        "verified"
    assert from_corpus and len(dropped) > from_corpus
    for q in dropped:
        assert check_valid(q, SolverConfig()).status != "valid", q


def test_a_countermodel_refutes_later_candidates_of_its_visit(monkeypatch):
    """One visit's candidates under x = 5.  The first, x < 0, is Invalid
    with the model x = 5, which refutes x <= 3: that one is not asked and
    gets no verdict, so asking it later runs the solver.  x < z reads z,
    which the model leaves without a value, so it is asked, and so is
    0 <= x, which the model does not refute."""
    from rsccore import solver

    check_internal = solver._check_internal
    runs = []

    def run(h, goal):
        runs.append(goal)
        return check_internal(h, goal)

    monkeypatch.setattr(solver, "_check_internal", run)
    x, z = TVar("x"), TVar("z")
    goals = [PAtom(TBuiltin("lt", (x, TConst(0)))),
             PAtom(TBuiltin("le", (x, TConst(3)))),
             PAtom(TBuiltin("lt", (x, z))),
             PAtom(TBuiltin("le", (TConst(0), x)))]
    queries = Query.per_goal({"x": S_INT, "z": S_INT}, p_eq(x, TConst(5)),
                             goals)
    config = SolverConfig()
    verdicts = filter_valid(queries, config)
    assert [v and v.status for v in verdicts] == \
        ["invalid", None, "invalid", "valid"]
    assert verdicts[0].model == "x = 5"
    assert runs == [goals[0], goals[2], goals[3]]
    assert check_valid(queries[1], config).status == "invalid"
    assert runs[-1] == goals[1]
