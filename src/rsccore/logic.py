"""The logical layer: sorts, typing environments and their embedding into
the refinement logic, type well-formedness, self-strengthening, and the
structural (object) constraint system that resolves fields, methods and
class invariants through the inheritance chain."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    BArr, BBot, BClass, BPrim, BVar, Base, ClassDecl, MethodDecl, PRIM_TAG,
    P_TRUE, PAnd, PAtom, PKvar, PNot, Pred, Program, RBase, RExists, RFun,
    RInter, RType, TBuiltin, TConst, TField, TThis, TUF, TValueVar, TVar, Term,
    UNDEFINED, NULL, base_of_value, exists_core, map_core, p_and, p_eq,
    pred_leaves, pred_subst, type_subst, with_field,
)

# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True)
class Sort:
    kind: str  # int | bool | str | undefined | null | obj | arr | tyvar | bot
    name: str = ""

    def __str__(self):
        return f"{self.kind}({self.name})" if self.name else self.kind


S_INT = Sort("int")
S_BOOL = Sort("bool")
S_STR = Sort("str")
S_UNDEF = Sort("undefined")
S_NULL = Sort("null")
S_OBJ = Sort("obj")
S_ARR = Sort("arr")
S_BOT = Sort("bot")

# the result sort of each built-in function of the refinement logic, and
# the arithmetic operators; every other operator yields a boolean
FUNC_SORTS = {"len": S_INT, "ttag": S_STR, "instanceof": S_BOOL}
ARITH_OPS = frozenset(("add", "sub", "mul", "div", "mod"))


def sort_of_base(b: Base) -> Sort:
    if isinstance(b, BPrim):
        return {"number": S_INT, "bool": S_BOOL, "string": S_STR,
                "undefined": S_UNDEF, "null": S_NULL}[b.name]
    if isinstance(b, BClass):
        return S_OBJ
    if isinstance(b, BArr):
        return S_ARR
    if isinstance(b, BVar):
        return Sort("tyvar", b.name)
    if isinstance(b, BBot):
        return S_BOT
    raise TypeError(b)


class WfViolation(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Class table (the structural constraint system)


class ClassTable:
    def __init__(self, program: Optional[Program] = None):
        self.decls: dict[str, ClassDecl] = {}
        if program is not None:
            for c in program.classes:
                if c.name in self.decls:
                    raise WfViolation(f"duplicate class {c.name}")
                self.decls[c.name] = c
            for c in program.classes:
                seen_methods: set = set()
                for decl in reversed(self.chain(c.name)):
                    for m in decl.methods:
                        if m.is_ctor:
                            continue
                        if m.name in seen_methods:
                            raise WfViolation(
                                f"method {m.name} of {c.name} overrides an"
                                " inherited method")
                        seen_methods.add(m.name)
        # the solver's sort of each field path `%field:<name>`; the first
        # class declaring the name wins
        self.field_sorts: dict[str, Sort] = {}
        for c in self.decls.values():
            for f in c.fields:
                t = exists_core(f.rtype)
                if isinstance(t, RBase):
                    self.field_sorts.setdefault(f"%field:{f.name}",
                                                sort_of_base(t.base))

    def has_class(self, name: str) -> bool:
        return name == "Object" or name in self.decls

    def chain(self, cname: str) -> list[ClassDecl]:
        """Declarations from root ancestor down to cname."""
        out: list[ClassDecl] = []
        seen: set = set()
        cur: Optional[str] = cname
        while cur is not None and cur != "Object":
            if cur in seen:
                raise WfViolation(f"inheritance cycle through {cur}")
            seen.add(cur)
            decl = self.decls.get(cur)
            if decl is None:
                raise WfViolation(f"unknown class {cur}")
            out.append(decl)
            cur = decl.parent
        return list(reversed(out))

    def is_subclass(self, sub: str, sup: str) -> bool:
        if sup == "Object":
            return True
        return any(d.name == sup for d in self.chain(sub))

    def fields_of(self, recv_type: RType, recv_term: Term,
                  strengthen_with_refinement: bool = True) -> list:
        """Resolved fields (mut, name, type) of the receiver, inherited
        first, with `this` replaced by the receiver term and, optionally,
        each field type strengthened by the receiver's refinement."""
        base, pred = _base_and_pred(recv_type)
        if not isinstance(base, BClass):
            raise WfViolation(f"receiver is not an object type")
        out = []
        for decl in self.chain(base.name):
            for f in decl.fields:
                ft = type_subst(f.rtype, {"this": recv_term})
                if strengthen_with_refinement and pred != P_TRUE:
                    ft = strengthen(ft, pred_subst(pred, {"v": recv_term}))
                out.append((f.mut, f.name, ft))
        names = [n for _, n, _ in out]
        if len(names) != len(set(names)):
            raise WfViolation(
                f"field shadowing in class {base.name}")
        return out

    def field_of(self, recv_type: RType, recv_term: Term, fname: str,
                 strengthen_with_refinement: bool = True):
        for mut, name, ft in self.fields_of(recv_type, recv_term,
                                            strengthen_with_refinement):
            if name == fname:
                return mut, ft
        base, _ = _base_and_pred(recv_type)
        raise WfViolation(f"class {base.name} has no field {fname!r}")

    def has_member(self, recv_type: RType, recv_term: Term, mname: str):
        """The method signature with the receiver substituted for `this`
        (and its result strengthened by the receiver refinement)."""
        base, pred = _base_and_pred(recv_type)
        if not isinstance(base, BClass):
            raise WfViolation("receiver is not an object type")
        found: Optional[MethodDecl] = None
        owner = None
        for decl in self.chain(base.name):
            for m in decl.methods:
                if m.name == mname and not m.is_ctor:
                    found = m
                    owner = decl.name
        if found is None:
            raise WfViolation(f"class {base.name} has no method {mname!r}")
        sub = {"this": recv_term}
        params = tuple((n, type_subst(t, sub)) for n, t in found.params)
        ret = type_subst(found.ret, sub)
        if pred != P_TRUE:
            ret = strengthen(ret, pred_subst(pred, {"v": recv_term}))
        precond = pred_subst(found.precond, sub)
        return RFun(params, ret, found.tyvars, precond), found, owner

    def constructor_of(self, cname: str) -> Optional[MethodDecl]:
        for decl in reversed(self.chain(cname)):
            for m in decl.methods:
                if m.is_ctor:
                    return m if decl.name == cname else None
        return None

    def class_inv(self, cname: str, w: Term) -> Pred:
        """Declared invariants up the chain (with this -> w), conjoined
        with inclusion facts for every class on the chain."""
        parts = [self.instanceof_chain(cname, w)]
        for decl in self.chain(cname):
            if decl.invariant != P_TRUE:
                parts.append(pred_subst(decl.invariant, {"this": w}))
        return p_and(*parts)

    def declared_inv(self, cname: str, w: Term) -> Pred:
        parts = []
        for decl in self.chain(cname):
            if decl.invariant != P_TRUE:
                parts.append(pred_subst(decl.invariant, {"this": w}))
        return p_and(*parts)

    def instanceof_chain(self, cname: str, w: Term) -> Pred:
        parts = [PAtom(TUF("instanceof", (w, TConst(cname))))]
        for decl in self.chain(cname)[:-1]:
            parts.append(PAtom(TUF("instanceof", (w, TConst(decl.name)))))
        return p_and(*parts)


def _base_and_pred(t: RType):
    t = exists_core(t)
    if isinstance(t, RBase):
        return t.base, t.pred
    raise WfViolation("expected a base-shaped type")


# ---------------------------------------------------------------------------
# Strengthening and selfification


def strengthen(t: RType, p: Pred) -> RType:
    if p == P_TRUE:
        return t

    def conjoin(core: RType) -> RType:
        if not isinstance(core, RBase):
            raise WfViolation("cannot strengthen a function type")
        return with_field(core, "pred", p_and(core.pred, p))
    return map_core(t, conjoin)


def selfify(t: RType, w: Term) -> RType:
    return strengthen(t, PAtom(TBuiltin("eq", (TValueVar(), w))))


# ---------------------------------------------------------------------------
# Typing environments


@dataclass(frozen=True)
class Bind:
    name: str
    rtype: RType
    raw_class: bool = False  # structural facts only (object under construction)


@dataclass(frozen=True)
class Guard:
    pred: Pred


class NameSupply:
    def __init__(self):
        self._c = itertools.count(1)

    def fresh(self, base: str) -> str:
        return f"{base}!{next(self._c)}"


def _base_name(n: str) -> str:
    return n.split("%")[0].split("!")[0].split("#")[0] or "x"


class TypeEnv:
    """Ordered bindings and guard predicates; persistent (extension returns
    a new environment)."""

    def __init__(self, classes: ClassTable, supply: Optional[NameSupply] = None,
                 items: tuple = (), index: Optional[dict] = None):
        self.classes = classes
        self.supply = supply or NameSupply()
        self.items = items
        self._index = index if index is not None else {}

    def _extended(self, item) -> "TypeEnv":
        idx = dict(self._index)
        if isinstance(item, Bind):
            idx[item.name] = item
        return TypeEnv(self.classes, self.supply, self.items + (item,), idx)

    def open(self, t: RType, base: Optional[str] = None,
             until: Optional[RType] = None) -> tuple:
        """Open t's existential wrappers, outermost first: each binder gets
        a fresh name from `base` (by default its own base name) and is bound
        at its bound, which is opened the same way first.  Stops at a level
        equal to `until`.  Returns (env', the opened type)."""
        env = self
        while isinstance(t, RExists) and t != until:
            fresh = env.supply.fresh(base or _base_name(t.name))
            env, bound = env.open(t.bound)
            env = env._extended(Bind(fresh, bound))
            t = type_subst(t.body, {t.name: TVar(fresh)})
        return env, t

    def bind(self, name: str, t: RType, raw_class: bool = False) -> "TypeEnv":
        """Bind name at t, opening existential wrappers into fresh
        auxiliary bindings first."""
        env, t = self.open(t)
        return env.bind_raw(name, t, raw_class)

    def bind_raw(self, name: str, t: RType,
                 raw_class: bool = False) -> "TypeEnv":
        """Bind without opening existential wrappers (callers that manage
        opening themselves)."""
        if name in self._index:
            raise WfViolation(f"duplicate binding {name!r}")
        return self._extended(Bind(name, t, raw_class))

    def guard(self, p: Pred) -> "TypeEnv":
        return self._extended(Guard(p))

    def lookup(self, name: str) -> Optional[RType]:
        b = self._index.get(name)
        return b.rtype if b is not None else None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def binding_names(self) -> list:
        return [i.name for i in self.items if isinstance(i, Bind)]

    # -- embedding -------------------------------------------------------------

    def embed(self) -> Pred:
        """Conjunction of all guards and of each binding's refinement with
        the bound name substituted for the value variable, plus base-sort
        axioms."""
        parts: list[Pred] = []
        for item in self.items:
            if isinstance(item, Guard):
                parts.append(item.pred)
                continue
            t = item.rtype
            if not isinstance(t, RBase):
                continue  # function-typed bindings have no logic image
            w = TVar(item.name)
            if t.pred != P_TRUE:
                parts.append(pred_subst(t.pred, {"v": w}))
            parts.extend(self._axioms(t.base, w, item.raw_class))
        return p_and(*parts)

    def _axioms(self, b: Base, w: Term, raw_class: bool) -> list:
        tag = TUF("ttag", (w,))
        if isinstance(b, BPrim):
            out = [p_eq(tag, TConst(PRIM_TAG[b.name]))]
            if b.name in ("undefined", "null"):
                # the one value of the base
                out.append(p_eq(w, TConst(
                    UNDEFINED if b.name == "undefined" else NULL)))
            return out
        if isinstance(b, BArr):
            return [p_eq(tag, TConst("object")),
                    PAtom(TBuiltin("le", (TConst(0), TUF("len", (w,)))))]
        if isinstance(b, BClass):
            out = [p_eq(tag, TConst("object"))]
            if raw_class:
                out.append(self.classes.instanceof_chain(b.name, w))
            else:
                out.append(self.classes.class_inv(b.name, w))
            return out
        if isinstance(b, BBot):
            return [PAtom(TConst(False))]
        return []

    # -- sorts ---------------------------------------------------------------

    def sorts(self) -> dict:
        out: dict[str, Sort] = {}
        for item in self.items:
            if isinstance(item, Bind) and isinstance(item.rtype, RBase):
                out[item.name] = sort_of_base(item.rtype.base)
        return out

    def query_sorts(self, vee_base: Base) -> dict:
        """The sort table of a validity query under this environment: the
        bindings, the value variable `%v` at `vee_base`, and every field
        path of the class table."""
        return {**self.classes.field_sorts, **self.sorts(),
                "%v": sort_of_base(vee_base)}

    def base_of(self, name: str) -> Optional[Base]:
        t = self.lookup(name)
        if isinstance(t, RBase):
            return t.base
        return None


# ---------------------------------------------------------------------------
# Sort checking / well-formedness


def sort_of_term(env: TypeEnv, t: Term, vee_base: Optional[Base],
                 this_base: Optional[Base] = None) -> Sort:
    # a term's base is known for a variable, a constant or a field path,
    # and None otherwise; it is read only under a field path
    def sort_and_base(u: Term):
        if isinstance(u, TVar):
            b = env.base_of(u.name)
            if b is None:
                raise WfViolation(f"unbound symbol {u.name!r} in refinement")
            return sort_of_base(b), b
        if isinstance(u, TValueVar):
            if vee_base is None:
                raise WfViolation("value variable used outside a refinement")
            return sort_of_base(vee_base), vee_base
        if isinstance(u, TThis):
            b = this_base if this_base is not None else env.base_of("this")
            if b is None:
                raise WfViolation("this unbound in refinement")
            return sort_of_base(b), b
        if isinstance(u, TConst):
            b = base_of_value(u.value)
            return sort_of_base(b), b
        if isinstance(u, TField):
            _, bbase = sort_and_base(u.base)
            if not isinstance(bbase, BClass):
                raise WfViolation(
                    f"field path through non-object term")
            mut, ft = env.classes.field_of(RBase(bbase, P_TRUE), u.base,
                                           u.fname, False)
            if mut != "imm":
                raise WfViolation(
                    f"mutable field {u.fname!r} cannot appear in a"
                    " refinement")
            fb, _ = _base_and_pred(ft)
            return sort_of_base(fb), fb
        if isinstance(u, TUF):
            if u.fname not in FUNC_SORTS:
                raise WfViolation(
                    f"unknown function {u.fname!r} in refinement")
            s, _ = sort_and_base(u.args[0])
            if u.fname == "len" and s.kind not in ("arr", "tyvar"):
                raise WfViolation("len applies to arrays")
            if u.fname == "instanceof":
                if s.kind not in ("obj", "tyvar"):
                    raise WfViolation("instanceof applies to objects")
                a2 = u.args[1]
                if not (isinstance(a2, TConst) and isinstance(a2.value, str)):
                    raise WfViolation("instanceof needs a class name")
                if not env.classes.has_class(a2.value):
                    raise WfViolation(f"unknown class {a2.value!r} in"
                                      " instanceof")
            return FUNC_SORTS[u.fname], None
        if isinstance(u, TBuiltin):
            op = u.op
            if op in ARITH_OPS:
                for a in u.args:
                    s, _ = sort_and_base(a)
                    if s.kind not in ("int", "tyvar"):
                        raise WfViolation(f"arithmetic on non-number term")
                return S_INT, None
            if op in ("lt", "le", "gt", "ge"):
                for a in u.args:
                    s, _ = sort_and_base(a)
                    if s.kind not in ("int", "tyvar"):
                        raise WfViolation("comparison on non-number term")
            elif op in ("eq", "ne"):
                s1, _ = sort_and_base(u.args[0])
                s2, _ = sort_and_base(u.args[1])
                if s1 != s2 and "tyvar" not in (s1.kind, s2.kind):
                    raise WfViolation(
                        f"equality between different sorts {s1} and {s2}")
            elif op in ("and", "or", "implies"):
                for a in u.args:
                    s, _ = sort_and_base(a)
                    if s.kind != "bool":
                        raise WfViolation("boolean operator on non-boolean")
            elif op == "not":
                s, _ = sort_and_base(u.args[0])
                if s.kind != "bool":
                    raise WfViolation("negation of a non-boolean")
            else:
                raise WfViolation(f"unknown operator {op!r}")
            return S_BOOL, None
        raise TypeError(u)

    s, _ = sort_and_base(t)
    return s


def wf_pred(env: TypeEnv, p: Pred, vee_base: Optional[Base]) -> list:
    """Well-formedness violations of a predicate (empty list = ok)."""
    out: list[str] = []
    for a in pred_leaves(p):
        if isinstance(a, PAtom):
            try:
                s = sort_of_term(env, a.term, vee_base)
            except WfViolation as e:
                out.append(e.reason)
                continue
            if s.kind not in ("bool", "tyvar"):
                out.append(f"refinement atom is not boolean: {s}")
    return out


def wf_type(env: TypeEnv, t: RType) -> list:
    """Violations: unbound symbols, mutable fields in refinements, sort
    mismatches; empty list means well-formed."""
    if isinstance(t, RBase):
        out = wf_pred(env, t.pred, t.base)
        if isinstance(t.base, BArr):
            out.extend(wf_type(env, t.base.elem))
        if isinstance(t.base, BClass) and not env.classes.has_class(
                t.base.name):
            out.append(f"unknown class {t.base.name!r}")
        return out
    if isinstance(t, RExists):
        out = wf_type(env, t.bound)
        try:
            inner = env.bind(t.name, t.bound)
        except WfViolation as e:
            return out + [e.reason]
        return out + wf_type(inner, t.body)
    if isinstance(t, RFun):
        out: list[str] = []
        inner = env
        for n, pt in t.params:
            out.extend(wf_type(inner, pt))
            try:
                inner = inner.bind(n, pt)
            except WfViolation as e:
                out.append(e.reason)
        if t.ret is not None:
            out.extend(wf_type(inner, t.ret))
        out.extend(wf_pred(inner, t.precond, None))
        return out
    if isinstance(t, RInter):
        out = []
        for c in t.conjuncts:
            out.extend(wf_type(env, c))
        return out
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Utilities shared with the solver boundary


def drop_kvars(p: Pred, positive: bool = True) -> Pred:
    """Erase refinement-variable applications, polarity-aware so a
    hypothesis only ever gets weaker (positive occurrences become true,
    negative ones false); used when a concrete validity verdict is needed
    before inference has solved the variables."""
    if isinstance(p, PKvar):
        return P_TRUE if positive else PAtom(TConst(False))
    if isinstance(p, PAnd):
        return p_and(*[drop_kvars(c, positive) for c in p.conjuncts])
    if isinstance(p, PNot):
        return PNot(drop_kvars(p.pred, not positive))
    return p
