"""The structural maps of the refinement logic against the hand-written
recursions they replaced: substitution into terms, predicates and types
(capture under an existential included) and constant folding, on random
inputs.  The oracles below are those recursions, kept verbatim."""

import itertools
import re

from hypothesis import example, given, settings, strategies as st

from rsccore.semantics.values import (
    ARITH, COMPARE, StuckError, values_equal,
)
from rsccore.solver.normal import const_fold, fold_pred
from rsccore.syntax import (
    NULL, BArr, BClass, BPrim, BVar, PAnd, PAtom, PKvar, PNot, RBase,
    RExists, RFun, RInter, TBuiltin, TConst, TField, TThis, TUF, TValueVar,
    TVar, UNDEFINED, p_and, pred_subst, term_subst, type_subst,
)


# ---------------------------------------------------------------------------
# Oracles


def old_term_free_vars(t):
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, TField):
        return old_term_free_vars(t.base)
    if isinstance(t, (TUF, TBuiltin)):
        out = set()
        for a in t.args:
            out |= old_term_free_vars(a)
        return out
    return set()


def old_term_subst(t, m):
    if isinstance(t, TVar):
        return m.get(t.name, t)
    if isinstance(t, TValueVar):
        return m.get("v", t)
    if isinstance(t, TThis):
        return m.get("this", t)
    if isinstance(t, TField):
        return TField(old_term_subst(t.base, m), t.fname)
    if isinstance(t, TUF):
        return TUF(t.fname, tuple(old_term_subst(a, m) for a in t.args))
    if isinstance(t, TBuiltin):
        return TBuiltin(t.op, tuple(old_term_subst(a, m) for a in t.args))
    return t


def old_pred_subst(p, m):
    if not m:
        return p
    if isinstance(p, PAnd):
        return PAnd(tuple(old_pred_subst(c, m) for c in p.conjuncts))
    if isinstance(p, PNot):
        return PNot(old_pred_subst(p.pred, m))
    if isinstance(p, PAtom):
        return PAtom(old_term_subst(p.term, m))
    if isinstance(p, PKvar):
        return PKvar(p.kid, tuple((n, old_term_subst(t, m))
                                  for n, t in p.subst))
    raise TypeError(p)


_old_fresh_alpha = itertools.count(1)


def old_type_subst(t, m):
    if not m:
        return t
    if isinstance(t, RBase):
        base = t.base
        if isinstance(base, BArr):
            base = BArr(old_type_subst(base.elem, m), base.mut)
        return RBase(base, old_pred_subst(t.pred, m))
    if isinstance(t, RExists):
        binder = t.name
        body = t.body
        m2 = {k: v for k, v in m.items() if k != binder}
        hit = set()
        for v in m2.values():
            hit |= old_term_free_vars(v)
        if binder in hit:
            fresh = f"{binder}%{next(_old_fresh_alpha)}"
            body = old_type_subst(body, {binder: TVar(fresh)})
            binder = fresh
        return RExists(binder, old_type_subst(t.bound, m),
                       old_type_subst(body, m2))
    if isinstance(t, RFun):
        m2 = dict(m)
        params = []
        for name, pt in t.params:
            params.append((name, old_type_subst(pt, m2)))
            m2.pop(name, None)
        return RFun(tuple(params), old_type_subst(t.ret, m2), t.tyvars,
                    old_pred_subst(t.precond, m2))
    if isinstance(t, RInter):
        return RInter(tuple(old_type_subst(c, m) for c in t.conjuncts))
    raise TypeError(t)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def old_const_fold(t):
    if isinstance(t, TBuiltin):
        args = tuple(old_const_fold(a) for a in t.args)
        op = t.op
        vals = [a.value if isinstance(a, TConst) else None for a in args]
        if op in ARITH and all(_is_int(v) for v in vals):
            try:
                return TConst(ARITH[op](*vals))
            except StuckError:
                pass
        if op == "add":
            if vals[0] == 0:
                return args[1]
            if vals[1] == 0:
                return args[0]
        if op == "sub" and vals[1] == 0:
            return args[0]
        if op == "mul":
            if vals[0] == 1:
                return args[1]
            if vals[1] == 1:
                return args[0]
            if vals[0] == 0 or vals[1] == 0:
                return TConst(0)
        if op in COMPARE and all(_is_int(v) for v in vals):
            return TConst(COMPARE[op](*vals))
        if op in ("eq", "ne") and all(isinstance(a, TConst) for a in args):
            same = values_equal(vals[0], vals[1])
            return TConst(same if op == "eq" else not same)
        if op == "and":
            if vals[0] is True:
                return args[1]
            if vals[1] is True:
                return args[0]
            if False in (vals[0], vals[1]):
                return TConst(False)
        if op == "or":
            if vals[0] is False:
                return args[1]
            if vals[1] is False:
                return args[0]
            if True in (vals[0], vals[1]):
                return TConst(True)
        if op == "not" and isinstance(vals[0], bool):
            return TConst(not vals[0])
        if op == "implies":
            if vals[0] is False or vals[1] is True:
                return TConst(True)
            if vals[0] is True:
                return args[1]
        return TBuiltin(op, args)
    if isinstance(t, TUF):
        return TUF(t.fname, tuple(old_const_fold(a) for a in t.args))
    if isinstance(t, TField):
        return TField(old_const_fold(t.base), t.fname)
    return t


def old_fold_pred(p):
    if isinstance(p, PAnd):
        return p_and(*[old_fold_pred(c) for c in p.conjuncts])
    if isinstance(p, PNot):
        inner = old_fold_pred(p.pred)
        if inner == PAtom(TConst(True)):
            return PAtom(TConst(False))
        if inner == PAtom(TConst(False)):
            return PAtom(TConst(True))
        return PNot(inner)
    if isinstance(p, PAtom):
        return PAtom(old_const_fold(p.term))
    return p


# ---------------------------------------------------------------------------
# Random terms, predicates and types

NAMES = ["x", "y", "z", "v", "this"]

leaf_terms = st.one_of(
    st.sampled_from(NAMES[:3]).map(TVar),
    st.one_of(st.integers(-3, 3), st.booleans(), st.sampled_from(
        ["s", "", UNDEFINED, NULL])).map(TConst),
    st.just(TValueVar()), st.just(TThis()))

BINARY = ["add", "sub", "mul", "div", "mod", "lt", "le", "gt", "ge", "eq",
          "ne", "and", "or", "implies"]


def _compound_terms(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from(["f", "g"])).map(
            lambda a: TField(*a)),
        st.tuples(st.sampled_from(["len", "ttag", "h"]),
                  st.lists(sub, min_size=1, max_size=2).map(tuple)).map(
            lambda a: TUF(*a)),
        st.tuples(st.sampled_from(BINARY), st.tuples(sub, sub)).map(
            lambda a: TBuiltin(*a)),
        st.tuples(st.sampled_from(["not", "neg"]), sub.map(
            lambda a: (a,))).map(lambda a: TBuiltin(*a)))


terms = st.recursive(leaf_terms, _compound_terms, max_leaves=8)

leaf_preds = st.one_of(
    terms.map(PAtom),
    st.tuples(st.integers(1, 3), st.dictionaries(
        st.sampled_from(NAMES), terms, max_size=2).map(
            lambda d: tuple(sorted(d.items())))).map(lambda a: PKvar(*a)))

preds = st.recursive(leaf_preds, lambda sub: st.one_of(
    st.lists(sub, max_size=3).map(lambda cs: PAnd(tuple(cs))),
    sub.map(PNot)), max_leaves=6)

bases = st.sampled_from([BPrim("number"), BPrim("bool"), BClass("C"),
                         BVar("T")])


def _compound_types(sub):
    funs = st.tuples(
        st.lists(st.tuples(st.sampled_from(NAMES[:3]), sub), max_size=2).map(
            tuple),
        st.one_of(st.none(), sub), st.just(()), preds).map(
            lambda a: RFun(*a))
    return st.one_of(
        st.tuples(sub.map(BArr), preds).map(lambda a: RBase(*a)),
        st.tuples(st.sampled_from(NAMES[:3]), sub, sub).map(
            lambda a: RExists(*a)),
        funs,
        st.lists(funs, min_size=1, max_size=2).map(
            lambda cs: RInter(tuple(cs))))


types = st.recursive(st.tuples(bases, preds).map(lambda a: RBase(*a)),
                     _compound_types, max_leaves=5)

substs = st.dictionaries(st.sampled_from(NAMES), terms, max_size=3)


def outcome(f, *args):
    try:
        return ("ok", f(*args))
    except Exception as e:  # the two versions must fail alike too
        return ("raise", type(e))


def _fresh_numbers_canonical(r) -> str:
    """repr(r) with the `%n` of each binder renamed apart numbered by
    first appearance, since the two versions draw from two counters."""
    seen: dict = {}
    return re.sub(r"%(\d+)", lambda mo: "%" + str(
        seen.setdefault(mo.group(1), len(seen))), repr(r))


# ---------------------------------------------------------------------------
# The differential tests


@given(terms, substs)
@settings(max_examples=300, deadline=None)
def test_term_subst_matches_the_recursion(t, m):
    assert outcome(term_subst, t, m) == outcome(old_term_subst, t, m)


@given(preds, substs)
@settings(max_examples=300, deadline=None)
def test_pred_subst_matches_the_recursion(p, m):
    assert outcome(pred_subst, p, m) == outcome(old_pred_subst, p, m)


_CAPTURE = RExists("z", RBase(BPrim("number"), PAtom(TVar("x"))),
                   RBase(BPrim("number"), PAtom(TBuiltin(
                       "eq", (TValueVar(), TBuiltin("add", (TVar("x"),
                                                            TVar("z"))))))))


@given(types, substs)
@example(_CAPTURE, {"x": TVar("z")})
@example(RExists("x", _CAPTURE, _CAPTURE), {"x": TVar("z"), "z": TVar("x")})
@settings(max_examples=300, deadline=None)
def test_type_subst_matches_the_recursion(t, m):
    """Equal up to the numbers of the binders renamed apart."""
    new, old = outcome(type_subst, t, m), outcome(old_type_subst, t, m)
    assert new[0] == old[0]
    assert _fresh_numbers_canonical(new[1]) == \
        _fresh_numbers_canonical(old[1])


def test_type_subst_renames_a_capturing_binder():
    s = type_subst(_CAPTURE, {"x": TVar("z")})
    assert s.name.startswith("z%")
    assert _fresh_numbers_canonical(s) == _fresh_numbers_canonical(
        old_type_subst(_CAPTURE, {"x": TVar("z")}))


@given(terms)
@settings(max_examples=300, deadline=None)
def test_const_fold_matches_the_recursion(t):
    assert outcome(const_fold, t) == outcome(old_const_fold, t)


@given(preds)
@settings(max_examples=300, deadline=None)
def test_fold_pred_matches_the_recursion(p):
    assert outcome(fold_pred, p) == outcome(old_fold_pred, p)
