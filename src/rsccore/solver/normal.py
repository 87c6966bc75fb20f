"""Term normalization for the internal decision procedure: constant
folding, sort inference, and the lowering of predicates into boolean
formula trees over linear-arithmetic and equality literals.

Nonlinear products and symbolic division/modulus become opaque
uninterpreted applications; the congruence engine handles their equality
reasoning while Fourier-Motzkin sees them as plain unknowns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union
from weakref import WeakValueDictionary

from ..logic import ARITH_OPS, FUNC_SORTS, S_BOOL, S_INT, Sort, sort_of_base
from ..semantics.values import ARITH, COMPARE, StuckError, values_equal
from ..syntax import (
    NULL, PAnd, PAtom, PKvar, PNot, Pred, TBuiltin, TConst, TField, TThis, TUF,
    TValueVar, TVar, Term, UNDEFINED, base_of_value, literal_str, map_term,
    p_and, term_str,
)


class NormError(Exception):
    pass


# ---------------------------------------------------------------------------
# Constant folding


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def const_fold(t: Term) -> Term:
    """Evaluate constant subterms; shapes like x+0 and 1*x simplify."""
    t = map_term(t, const_fold)
    if isinstance(t, TBuiltin):
        args = t.args
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
    return t


def fold_pred(p: Pred) -> Pred:
    if isinstance(p, PAnd):
        return p_and(*[fold_pred(c) for c in p.conjuncts])
    if isinstance(p, PNot):
        inner = fold_pred(p.pred)
        if inner == PAtom(TConst(True)):
            return PAtom(TConst(False))
        if inner == PAtom(TConst(False)):
            return PAtom(TConst(True))
        return PNot(inner)
    if isinstance(p, PAtom):
        return PAtom(const_fold(p.term))
    return p


# ---------------------------------------------------------------------------
# Sort inference over query terms


def infer_sort(t: Term, sorts: dict) -> Sort:
    if isinstance(t, TVar):
        if t.name not in sorts:
            raise NormError(f"no sort for symbol {t.name!r}")
        return sorts[t.name]
    if isinstance(t, TValueVar):
        if "%v" not in sorts:
            raise NormError("no sort for the value variable")
        return sorts["%v"]
    if isinstance(t, TThis):
        if "this" not in sorts:
            raise NormError("no sort for this")
        return sorts["this"]
    if isinstance(t, TConst):
        return sort_of_base(base_of_value(t.value))
    if isinstance(t, TField):
        # field paths are normalized to per-field unary functions; their
        # result sort is provided by the query's field-sort table
        key = f"%field:{t.fname}"
        if key not in sorts:
            raise NormError(f"no sort for field path .{t.fname}")
        return sorts[key]
    if isinstance(t, TUF):
        if t.fname in FUNC_SORTS:
            return FUNC_SORTS[t.fname]
        key = f"%uf:{t.fname}"
        if key not in sorts:
            raise NormError(f"no sort for function {t.fname!r}")
        return sorts[key]
    if isinstance(t, TBuiltin):
        return S_INT if t.op in ARITH_OPS else S_BOOL
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Internal literals


@dataclass(frozen=True)
class LinCmp:
    """sum(coeffs) + const `op` 0 with op in le/lt/eq/ne; keys are opaque
    term skeletons (canonical strings) valued over the integers."""

    op: str
    coeffs: tuple  # tuple[(key, int)] sorted by key
    const: int

    def __str__(self):
        parts = [f"{c}*{k}" for k, c in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts) + f" {self.op} 0"


@dataclass(frozen=True)
class EufLit:
    """term1 (=|!=) term2 over canonical skeletons."""

    eq: bool
    t1: "Skel"
    t2: "Skel"

    def __str__(self):
        op = "=" if self.eq else "!="
        return f"{self.t1} {op} {self.t2}"


class Skel:
    """Canonical first-order skeleton of a term: a constant, a variable,
    or an application.

    Skeletons are hash-consed: constructing one returns the live object
    with the same key, so equality is identity and the hash, the
    structural hash of the key, is computed once, as is the string on its
    first use.  The table holds its entries weakly; a skeleton leaves it
    with its last reference."""

    __slots__ = ("kind", "head", "args", "sort", "_hash", "_str",
                 "__weakref__")
    _table: WeakValueDictionary = WeakValueDictionary()

    kind: str  # "var" | "const" | "app"
    head: object
    args: tuple
    sort: str

    def __new__(cls, kind: str, head: object, args: tuple = (),
                sort: str = "int"):
        key = (kind, head, args, sort)
        self = cls._table.get(key)
        if self is None:
            self = object.__new__(cls)
            self.kind, self.head, self.args, self.sort = key
            self._hash = hash(key)
            self._str = None
            cls._table[key] = self
        return self

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Skel(kind={self.kind!r}, head={self.head!r}, "
                f"args={self.args!r}, sort={self.sort!r})")

    def __str__(self):
        if self._str is None:
            if self.kind == "app":
                self._str = f"{self.head}({', '.join(map(str, self.args))})"
            elif self.kind == "const":
                self._str = literal_str(self.head)
            else:
                self._str = str(self.head)
        return self._str


Lit = Union[LinCmp, EufLit]


TRUE_SKEL = Skel("const", True, (), "bool")
FALSE_SKEL = Skel("const", False, (), "bool")


def skel_of(t: Term, sorts: dict) -> Skel:
    s = infer_sort(t, sorts).kind
    if isinstance(t, TVar):
        return Skel("var", t.name, (), s)
    if isinstance(t, TValueVar):
        return Skel("var", "%v", (), s)
    if isinstance(t, TThis):
        return Skel("var", "this", (), s)
    if isinstance(t, TConst):
        v = t.value
        if v is UNDEFINED:
            return Skel("const", "%undefined", (), s)
        if v is NULL:
            return Skel("const", "%null", (), s)
        return Skel("const", v, (), s)
    if isinstance(t, TField):
        return Skel("app", f".{t.fname}", (skel_of(t.base, sorts),), s)
    if isinstance(t, TUF):
        return Skel("app", t.fname,
                    tuple(skel_of(a, sorts) for a in t.args), s)
    if isinstance(t, TBuiltin):
        if t.op == "mul":
            return Skel("app", "*",
                        (skel_of(t.args[0], sorts),
                         skel_of(t.args[1], sorts)), "int")
        if t.op in ("div", "mod"):
            return Skel("app", t.op,
                        tuple(skel_of(a, sorts) for a in t.args), "int")
        if t.op in ("add", "sub"):
            # additive structure is folded away by linearization; a raw
            # additive skeleton only appears as a UF argument
            return Skel("app", t.op,
                        tuple(skel_of(a, sorts) for a in t.args), "int")
        raise NormError(f"no skeleton for boolean operator {t.op}")
    raise TypeError(t)


def linearize(t: Term, sorts: dict) -> tuple:
    """Integer term -> (coeff map over Skel keys, constant)."""
    if isinstance(t, TConst) and _is_int(t.value):
        return {}, t.value
    if isinstance(t, TBuiltin):
        if t.op == "add":
            c1, k1 = linearize(t.args[0], sorts)
            c2, k2 = linearize(t.args[1], sorts)
            return _merge(c1, c2, 1), k1 + k2
        if t.op == "sub":
            c1, k1 = linearize(t.args[0], sorts)
            c2, k2 = linearize(t.args[1], sorts)
            return _merge(c1, c2, -1), k1 - k2
        if t.op == "mul":
            c1, k1 = linearize(t.args[0], sorts)
            c2, k2 = linearize(t.args[1], sorts)
            if not c1:
                return {k: v * k1 for k, v in c2.items() if v * k1 != 0}, \
                    k2 * k1
            if not c2:
                return {k: v * k2 for k, v in c1.items() if v * k2 != 0}, \
                    k1 * k2
            sk = skel_of(t, sorts)
            return {sk: 1}, 0
    sk = skel_of(t, sorts)
    # type-variable-sorted atoms participate as opaque integer unknowns;
    # hypotheses that put them in arithmetic have already pinned their tag
    return {sk: 1}, 0


def _merge(c1: dict, c2: dict, sign: int) -> dict:
    out = dict(c1)
    for k, v in c2.items():
        nv = out.get(k, 0) + sign * v
        if nv == 0:
            out.pop(k, None)
        else:
            out[k] = nv
    return out


def lincmp(op: str, lhs: Term, rhs: Term, sorts: dict) -> LinCmp:
    """lhs op rhs -> normalized (lhs - rhs) op' 0."""
    flip = {"gt": "lt", "ge": "le"}
    if op in flip:
        lhs, rhs = rhs, lhs
        op = flip[op]
    c1, k1 = linearize(lhs, sorts)
    c2, k2 = linearize(rhs, sorts)
    coeffs = _merge(c1, c2, -1)
    return LinCmp(op, tuple(sorted(coeffs.items(), key=lambda kv: str(kv[0]))),
                  k1 - k2)


# ---------------------------------------------------------------------------
# Formula construction (negation normal form over literals)

# formula := ("and", [f]) | ("or", [f]) | ("lit", Lit) | ("true",) | ("false",)


def build_formula(p: Pred, sorts: dict, positive: bool = True):
    if isinstance(p, PAnd):
        parts = [build_formula(c, sorts, positive) for c in p.conjuncts]
        return ("and" if positive else "or", parts)
    if isinstance(p, PNot):
        return build_formula(p.pred, sorts, not positive)
    if isinstance(p, PKvar):
        raise NormError("refinement variable reached the solver")
    if isinstance(p, PAtom):
        return _lift_bool_term(p.term, sorts, positive)
    raise TypeError(p)


def _lift_bool_term(t: Term, sorts: dict, positive: bool):
    if isinstance(t, TConst) and isinstance(t.value, bool):
        return ("true",) if t.value == positive else ("false",)
    if isinstance(t, TBuiltin):
        op = t.op
        if op == "and":
            a = _lift_bool_term(t.args[0], sorts, positive)
            b = _lift_bool_term(t.args[1], sorts, positive)
            return ("and" if positive else "or", [a, b])
        if op == "or":
            a = _lift_bool_term(t.args[0], sorts, positive)
            b = _lift_bool_term(t.args[1], sorts, positive)
            return ("or" if positive else "and", [a, b])
        if op == "not":
            return _lift_bool_term(t.args[0], sorts, not positive)
        if op == "implies":
            a_neg = _lift_bool_term(t.args[0], sorts, not positive)
            b = _lift_bool_term(t.args[1], sorts, positive)
            if positive:
                return ("or", [a_neg, b])
            return ("and", [a_neg, b])
        if op in ("lt", "le", "gt", "ge"):
            lit = lincmp(op, t.args[0], t.args[1], sorts)
            if not positive:
                lit = _negate_lincmp(lit)
            return ("lit", lit)
        if op in ("eq", "ne"):
            want_eq = (op == "eq") == positive
            s1 = infer_sort(t.args[0], sorts)
            s2 = infer_sort(t.args[1], sorts)
            kinds = {s1.kind, s2.kind}
            if kinds == {"int"}:
                lit = lincmp("eq" if want_eq else "ne", t.args[0], t.args[1],
                             sorts)
                euf = EufLit(want_eq, skel_of(t.args[0], sorts),
                             skel_of(t.args[1], sorts))
                return ("and", [("lit", lit), ("lit", euf)])
            if kinds == {"bool"}:
                a_pos = _lift_bool_term(t.args[0], sorts, True)
                a_neg = _lift_bool_term(t.args[0], sorts, False)
                b_pos = _lift_bool_term(t.args[1], sorts, True)
                b_neg = _lift_bool_term(t.args[1], sorts, False)
                if want_eq:
                    return ("or", [("and", [a_pos, b_pos]),
                                   ("and", [a_neg, b_neg])])
                return ("or", [("and", [a_pos, b_neg]),
                               ("and", [a_neg, b_pos])])
            return ("lit", EufLit(want_eq, skel_of(t.args[0], sorts),
                                  skel_of(t.args[1], sorts)))
    # a boolean-sorted atom (variable, instanceof, uninterpreted)
    sk = skel_of(t, sorts)
    if sk.sort != "bool":
        raise NormError(f"non-boolean atom: {term_str(t)}")
    return ("lit", EufLit(True, sk, TRUE_SKEL if positive else FALSE_SKEL))


def _negate_lincmp(l: LinCmp) -> LinCmp:
    # not(sum + c <= 0)  ==  sum + c > 0  ==  -(sum) - c < 0
    if l.op == "le":
        return LinCmp("lt", tuple((k, -v) for k, v in l.coeffs), -l.const)
    if l.op == "lt":
        return LinCmp("le", tuple((k, -v) for k, v in l.coeffs), -l.const)
    if l.op == "eq":
        return LinCmp("ne", l.coeffs, l.const)
    if l.op == "ne":
        return LinCmp("eq", l.coeffs, l.const)
    raise AssertionError(l.op)
