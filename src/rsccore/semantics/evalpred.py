"""Concrete evaluator for logical predicates over runtime values, used by
method preconditions and checked casts. Total on closed predicates whose
uninterpreted symbols (len, ttag, instanceof, field paths) are given
meaning by the heap and, for instanceof, the class table."""

from __future__ import annotations

from ..logic import ClassTable
from ..syntax import (
    PAnd, PAtom, PKvar, PNot, Pred, TBuiltin, TConst, TField, TThis, TUF,
    TValueVar, TVar, Term,
)
from .values import (
    ARITH, COMPARE, HArr, HObj, Heap, StuckError, Value, deref, type_tag,
    values_equal,
)


def eval_term(t: Term, env: dict, heap: Heap, classes: ClassTable) -> Value:
    if isinstance(t, TVar):
        if t.name not in env:
            raise StuckError(f"unbound symbol {t.name!r} in predicate")
        return env[t.name]
    if isinstance(t, TConst):
        return t.value
    if isinstance(t, TValueVar):
        if "v" not in env:
            raise StuckError("value variable unbound in predicate")
        return env["v"]
    if isinstance(t, TThis):
        if "this" not in env:
            raise StuckError("this unbound in predicate")
        return env["this"]
    if isinstance(t, TField):
        obj = deref(heap, eval_term(t.base, env, heap, classes), HObj)
        if obj is None:
            raise StuckError("field path on a non-object")
        if t.fname not in obj.fields:
            raise StuckError(f"unknown field {t.fname!r} in predicate")
        return obj.fields[t.fname]
    if isinstance(t, TUF):
        args = [eval_term(a, env, heap, classes) for a in t.args]
        if t.fname == "len":
            arr = deref(heap, args[0], HArr)
            if arr is None:
                raise StuckError("len of a non-array")
            return len(arr.elems)
        if t.fname == "ttag":
            return type_tag(args[0])
        if t.fname == "instanceof":
            v, cname = args
            if not isinstance(cname, str):
                raise StuckError("instanceof needs a class name")
            obj = deref(heap, v, HObj)
            return obj is not None and classes.is_subclass(obj.cname, cname)
        raise StuckError(f"uninterpreted function {t.fname!r} has no"
                         " runtime meaning")
    if isinstance(t, TBuiltin):
        if t.op == "implies":
            a = _as_bool(eval_term(t.args[0], env, heap, classes))
            if not a:
                return True
            return _as_bool(eval_term(t.args[1], env, heap, classes))
        args = [eval_term(a, env, heap, classes) for a in t.args]
        op = t.op
        if op in ARITH:
            return ARITH[op](_as_num(args[0]), _as_num(args[1]))
        if op in COMPARE:
            return COMPARE[op](_as_num(args[0]), _as_num(args[1]))
        if op == "eq":
            return values_equal(args[0], args[1])
        if op == "ne":
            return not values_equal(args[0], args[1])
        if op == "and":
            return _as_bool(args[0]) and _as_bool(args[1])
        if op == "or":
            return _as_bool(args[0]) or _as_bool(args[1])
        if op == "not":
            return not _as_bool(args[0])
        raise StuckError(f"operator {op!r} has no runtime meaning")
    raise TypeError(t)


def _as_num(v: Value) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise StuckError("arithmetic on a non-number in predicate")
    return v


def _as_bool(v: Value) -> bool:
    if not isinstance(v, bool):
        raise StuckError("boolean operator on a non-boolean in predicate")
    return v


def eval_pred(p: Pred, env: dict, heap: Heap, classes: ClassTable) -> bool:
    if isinstance(p, PAnd):
        return all(eval_pred(c, env, heap, classes) for c in p.conjuncts)
    if isinstance(p, PNot):
        return not eval_pred(p.pred, env, heap, classes)
    if isinstance(p, PAtom):
        return _as_bool(eval_term(p.term, env, heap, classes))
    if isinstance(p, PKvar):
        raise StuckError("refinement variable in a runtime predicate")
    raise TypeError(p)
