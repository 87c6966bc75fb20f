"""Parsing and resolution of refinement types, predicates and annotations.

Types are parsed into a raw form where every name application is a
`BNamed` placeholder; `TypeResolver` later decides whether each name is a
type alias (expand), a class, or a generic type variable.  Alias arguments
may be types or logical terms; the alias's parameter kinds (inferred from
its body) disambiguate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..syntax import (
    BArr, BClass, BVar, B_BOOL, B_NULL, B_NUM, B_STR, B_UNDEF, NULL, P_TRUE,
    PAtom, Pred, RBase, RFun, RInter, RType, SourceSpan, TBuiltin, TConst,
    TField, TThis, TUF, TValueVar, TVar, Term, UNDEFINED, base_subst, map_type,
    p_and, p_implies, p_not, p_or, type_children, type_subst, trivially_refine,
    with_field,
)
from .lexer import Token, TokenStream, lex


class ParseErrorBase(Exception):
    def __init__(self, msg: str, span: SourceSpan):
        super().__init__(f"{span}: {msg}")
        self.msg = msg
        self.span = span


class TypeParseError(ParseErrorBase):
    pass


PRIMS = {
    "number": B_NUM,
    "bool": B_BOOL,
    "boolean": B_BOOL,
    "string": B_STR,
    "undefined": B_UNDEF,
    "null": B_NULL,
    "void": B_UNDEF,  # functions without a meaningful result return undefined
}

PLACEHOLDER = "★"  # the qualifier hole


@dataclass(frozen=True)
class BNamed:
    """Unresolved name application in base-type position."""

    name: str
    args: tuple = ()  # tuple[RawArg]


@dataclass(frozen=True)
class RawArg:
    rtype: Optional[RType]
    term: Optional[Term]


# ---------------------------------------------------------------------------
# Term / predicate parsing (pratt-style over one grammar)

_CMP = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge",
        "=": "eq", "==": "eq", "===": "eq", "!=": "ne", "!==": "ne"}


class PredParser:
    def __init__(self, ts: TokenStream, allow_placeholder: bool = False,
                 stop_at_gt: bool = False):
        self.ts = ts
        self.allow_placeholder = allow_placeholder
        self.stop_at_gt = stop_at_gt

    def parse_pred(self) -> Pred:
        return self._to_pred(self.parse_term())

    def parse_term(self) -> Term:
        return self._implies()

    def _implies(self) -> Term:
        lhs = self._or()
        if self.ts.eat("=>"):
            rhs = self._implies()
            return TBuiltin("implies", (lhs, rhs))
        return lhs

    def _or(self) -> Term:
        t = self._and()
        while self.ts.at("||"):
            self.ts.next()
            t = TBuiltin("or", (t, self._and()))
        return t

    def _and(self) -> Term:
        t = self._cmp()
        while self.ts.at("&&") or self.ts.at("/\\"):
            self.ts.next()
            t = TBuiltin("and", (t, self._cmp()))
        return t

    def _cmp(self) -> Term:
        t = self._add()
        tok = self.ts.peek()
        if tok.kind == "sym" and tok.text in _CMP:
            if self.stop_at_gt and tok.text == ">":
                return t
            op = _CMP[self.ts.next().text]
            return TBuiltin(op, (t, self._add()))
        return t

    def _add(self) -> Term:
        t = self._mul()
        while self.ts.at("+") or self.ts.at("-"):
            op = "add" if self.ts.next().text == "+" else "sub"
            t = TBuiltin(op, (t, self._mul()))
        return t

    def _mul(self) -> Term:
        t = self._unary()
        while self.ts.at("*") or self.ts.at("/") or self.ts.at("%"):
            op = {"*": "mul", "/": "div", "%": "mod"}[self.ts.next().text]
            t = TBuiltin(op, (t, self._unary()))
        return t

    def _unary(self) -> Term:
        if self.ts.eat("!"):
            return TBuiltin("not", (self._unary(),))
        if self.ts.eat("-"):
            return TBuiltin("sub", (TConst(0), self._unary()))
        return self._postfix()

    def _postfix(self) -> Term:
        t = self._primary()
        while self.ts.at("."):
            self.ts.next()
            fld = self.ts.expect_ident("field name")
            t = TField(t, fld.text)
        return t

    def _primary(self) -> Term:
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "num":
            ts.next()
            return TConst(int(tok.text, 0))
        if tok.kind == "str":
            ts.next()
            return TConst(tok.text)
        if tok.text == "true":
            ts.next()
            return TConst(True)
        if tok.text == "false":
            ts.next()
            return TConst(False)
        if tok.text == "undefined":
            ts.next()
            return TConst(UNDEFINED)
        if tok.text == "null":
            ts.next()
            return TConst(NULL)
        if tok.text == "this":
            ts.next()
            return TThis()
        if tok.text in (PLACEHOLDER, "_"):
            if not self.allow_placeholder:
                raise TypeParseError("placeholder not allowed here", tok.span)
            ts.next()
            return TVar(PLACEHOLDER)
        if tok.text == "(":
            ts.next()
            t = self.parse_term()
            ts.expect(")")
            return t
        if tok.kind == "ident":
            ts.next()
            if ts.at("("):
                ts.next()
                args = []
                if not ts.at(")"):
                    args.append(self.parse_term())
                    while ts.eat(","):
                        args.append(self.parse_term())
                ts.expect(")")
                if tok.text == "instanceof" and len(args) == 2 and \
                        isinstance(args[1], TVar):
                    args[1] = TConst(args[1].name)
                return TUF(tok.text, tuple(args))
            if tok.text == "v":
                return TValueVar()
            return TVar(tok.text)
        raise TypeParseError(f"expected a term, found {tok.text!r}", tok.span)

    def _to_pred(self, t: Term) -> Pred:
        if isinstance(t, TBuiltin):
            if t.op == "and":
                return p_and(self._to_pred(t.args[0]), self._to_pred(t.args[1]))
            if t.op == "or":
                return p_or(self._to_pred(t.args[0]), self._to_pred(t.args[1]))
            if t.op == "not":
                return p_not(self._to_pred(t.args[0]))
            if t.op == "implies":
                return p_implies(self._to_pred(t.args[0]),
                                 self._to_pred(t.args[1]))
        return PAtom(t)


# ---------------------------------------------------------------------------
# Type parsing


class TypeParser:
    def __init__(self, ts: TokenStream):
        self.ts = ts

    def parse_rtype(self) -> RType:
        ts = self.ts
        # function types: optional <A,B> prefix, then (params) => ret
        if ts.at("<") and ts.peek(1).kind == "ident" and \
                ts.peek(2).text in (",", ">"):
            return self._funtype()
        if ts.at("(") and self._looks_like_funtype():
            return self._funtype()
        return self._atom()

    def _looks_like_funtype(self) -> bool:
        # scan to the matching ')' and check for '=>'
        depth = 0
        i = 0
        while True:
            tok = self.ts.peek(i)
            if tok.kind == "eof":
                return False
            if tok.text in ("(", "{", "["):
                depth += 1
            elif tok.text in (")", "}", "]"):
                depth -= 1
                if depth == 0:
                    return self.ts.peek(i + 1).text == "=>"
            i += 1

    def _funtype(self) -> RFun:
        ts = self.ts
        tyvars: list[str] = []
        if ts.eat("<"):
            tyvars.append(ts.expect_ident("type variable").text)
            while ts.eat(","):
                tyvars.append(ts.expect_ident("type variable").text)
            ts.expect(">")
        ts.expect("(", "to open parameter list")
        params: list = []
        idx = 0
        if not ts.at(")"):
            while True:
                if ts.peek().kind == "ident" and ts.at(":", 1):
                    name = ts.next().text
                    ts.next()
                    ptype = self.parse_rtype()
                else:
                    name = f"_p{idx}"
                    ptype = self.parse_rtype()
                params.append((name, ptype))
                idx += 1
                if not ts.eat(","):
                    break
        ts.expect(")")
        ts.expect("=>", "in function type")
        ret = self.parse_rtype()
        precond = P_TRUE
        if ts.at("requires"):
            ts.next()
            precond = PredParser(ts).parse_pred()
        return RFun(tuple(params), ret, tuple(tyvars), precond)

    def _atom(self) -> RType:
        ts = self.ts
        tok = ts.peek()
        if ts.eat("{"):
            # {v: T | p} or anonymous {T | p}
            if ts.peek().text == "v" and ts.at(":", 1):
                ts.next()
                ts.next()
            inner = self.parse_rtype()
            ts.expect("|", "in refinement type")
            pred = PredParser(ts).parse_pred()
            ts.expect("}")
            t = self._conjoin(inner, pred, tok.span)
            return self._postfix(t)
        if tok.kind in ("ident", "keyword"):
            ts.next()
            if tok.text in PRIMS:
                return self._postfix(trivially_refine(PRIMS[tok.text]))
            args: list[RawArg] = []
            # type arguments must open on the same line; a `<` on the next
            # line starts the next stacked signature of an intersection
            if ts.at("<") and ts.peek().span.line == tok.span.line:
                args = self._type_args()
            return self._postfix(RBase(BNamed(tok.text, tuple(args)), P_TRUE))
        raise TypeParseError(f"expected a type, found {tok.text!r}", tok.span)

    def _conjoin(self, t: RType, pred: Pred, span: SourceSpan) -> RType:
        if isinstance(t, RBase):
            return with_field(t, "pred", p_and(t.pred, pred))
        raise TypeParseError("refinements only apply to base types", span)

    def _postfix(self, t: RType) -> RType:
        ts = self.ts
        while ts.at("[") and ts.at("]", 1):
            ts.next()
            ts.next()
            t = RBase(BArr(t), P_TRUE)
        if ts.at("+") and isinstance(t, RBase) and isinstance(t.base, BArr):
            # T[]+ : non-empty array sugar
            ts.next()
            t = with_field(t, "pred", p_and(t.pred, PAtom(
                TBuiltin("lt", (TConst(0), TUF("len", (TValueVar(),)))))))
        return t

    def _type_args(self) -> list:
        """Parse <arg, ...> where each arg may be a type or a term."""
        ts = self.ts
        ts.expect("<")
        args: list[RawArg] = []
        while True:
            args.append(self._type_or_term_arg())
            if ts.eat(","):
                continue
            ts.expect(">")
            return args

    def _type_or_term_arg(self) -> RawArg:
        ts = self.ts
        start = ts.pos
        rtype = None
        term = None
        try:
            cand = self.parse_rtype()
            if ts.at(",") or ts.at(">"):
                rtype = cand
                type_end = ts.pos
            else:
                raise TypeParseError("not a clean type arg", ts.peek().span)
        except ParseErrorBase:
            type_end = None
        ts.pos = start
        try:
            cand_t = PredParser(ts, stop_at_gt=True).parse_term()
            if ts.at(",") or ts.at(">"):
                term = cand_t
                term_end = ts.pos
            else:
                raise TypeParseError("not a clean term arg", ts.peek().span)
        except ParseErrorBase:
            term_end = None
        if rtype is None and term is None:
            raise TypeParseError("expected a type or term argument",
                                 ts.peek(0).span)
        ts.pos = type_end if type_end is not None else term_end
        return RawArg(rtype, term)


# ---------------------------------------------------------------------------
# Resolution: BNamed -> alias expansion | class | type variable


class ResolveError(ParseErrorBase):
    pass


class TypeResolver:
    def __init__(self, aliases: dict, class_names: set[str]):
        self.aliases = aliases  # name -> TypeAliasDecl (bodies still raw)
        self.class_names = class_names
        self._param_kinds: dict[str, list[str]] = {}
        self._expanding: list[str] = []

    def param_kinds(self, alias_name: str) -> list[str]:
        """Classify each alias parameter as "type" or "term" from its body."""
        if alias_name in self._param_kinds:
            return self._param_kinds[alias_name]
        decl = self.aliases[alias_name]
        kinds = []
        for p in decl.params:
            kinds.append("type" if self._occurs_in_type_pos(decl.body, p)
                         else "term")
        self._param_kinds[alias_name] = kinds
        return kinds

    def _occurs_in_type_pos(self, t: RType, name: str) -> bool:
        if isinstance(t, RBase) and isinstance(t.base, BNamed):
            b = t.base
            if b.name == name and not b.args:
                return True
            for a in b.args:
                if a.rtype is not None and \
                        self._occurs_in_type_pos(a.rtype, name):
                    return True
                if a.rtype is not None and a.term is not None:
                    # ambiguous bare name: not decisive
                    continue
            return False
        return any(self._occurs_in_type_pos(c, name)
                   for c in type_children(t))

    def resolve(self, t: RType, span: SourceSpan, tyvars: set[str] = frozenset()) -> RType:
        if isinstance(t, RBase) and isinstance(t.base, BNamed):
            return self._resolve_named(t.base, t.pred, span, tyvars)
        if isinstance(t, RFun):
            tyvars = tyvars | set(t.tyvars)
        return map_type(t, lambda c: self.resolve(c, span, tyvars),
                        lambda p: p)

    def _resolve_named(self, b: BNamed, outer_pred: Pred, span: SourceSpan,
                       tyvars: set[str]) -> RType:
        if b.name in self.aliases:
            decl = self.aliases[b.name]
            if len(b.args) != len(decl.params):
                raise ResolveError(
                    f"alias {b.name} expects {len(decl.params)} argument(s),"
                    f" got {len(b.args)}", span)
            if b.name in self._expanding:
                raise ResolveError(f"cyclic type alias {b.name}", span)
            kinds = self.param_kinds(b.name)
            tsub: dict = {}
            bsub: dict = {}
            for p, kind, arg in zip(decl.params, kinds, b.args):
                if kind == "type":
                    if arg.rtype is None:
                        raise ResolveError(
                            f"alias {b.name}: parameter {p} needs a type"
                            " argument", span)
                    bsub[p] = self.resolve(arg.rtype, span, tyvars)
                else:
                    if arg.term is None:
                        raise ResolveError(
                            f"alias {b.name}: parameter {p} needs a term"
                            " argument", span)
                    tsub[p] = arg.term
            self._expanding.append(b.name)
            try:
                body = self.resolve(decl.body, span, tyvars)
            finally:
                self._expanding.pop()
            body = base_subst(body, bsub) if bsub else body
            body = type_subst(body, tsub) if tsub else body
            if outer_pred != P_TRUE:
                if not isinstance(body, RBase):
                    raise ResolveError(
                        f"alias {b.name} does not denote a refinable base",
                        span)
                body = with_field(body, "pred", p_and(body.pred, outer_pred))
            return body
        if b.args:
            raise ResolveError(f"{b.name} does not take type arguments", span)
        if b.name in self.class_names:
            return RBase(BClass(b.name), outer_pred)
        # a generic type variable placeholder: explicit, or short-uppercase
        if b.name in tyvars or (b.name[0].isupper() and len(b.name) <= 2):
            return RBase(BVar(b.name), outer_pred)
        raise ResolveError(f"unknown type name {b.name!r}", span)


# ---------------------------------------------------------------------------
# Annotation blocks


@dataclass
class Annot:
    kind: str  # "signature" | "ghost" | "invariant"
    name: Optional[str]
    rtype: Optional[RType]
    pred: Optional[Pred]
    span: SourceSpan


def parse_annotation(text: str, span: SourceSpan) -> Annot:
    """Parse the contents of a single annotation comment."""
    toks = lex(text, span.file)
    # shift token spans from comment-relative to file positions
    shifted = []
    for t in toks:
        s = t.span
        line = span.line + s.line - 1
        col = s.col + (span.col + 3 - 1 if s.line == 1 else 0)
        shifted.append(Token(t.kind, t.text, SourceSpan(
            span.file, span.start + 3 + s.start, span.start + 3 + s.end,
            line, col)))
    ts = TokenStream(shifted)
    if ts.at("invariant"):
        ts.next()
        pred = PredParser(ts).parse_pred()
        _expect_eof(ts)
        return Annot("invariant", None, None, pred, span)
    if ts.at("ghost"):
        ts.next()
        name = ts.expect_ident("ghost function name").text
        ts.expect("::", "after ghost function name")
        sig = TypeParser(ts).parse_rtype()
        _expect_eof(ts)
        if not isinstance(sig, RFun):
            raise TypeParseError("ghost annotation requires a function type",
                                 span)
        return Annot("ghost", name, sig, None, span)
    name = None
    if ts.peek().kind == "ident" and ts.at("::", 1):
        name = ts.next().text
        ts.next()
    sigs = [TypeParser(ts).parse_rtype()]
    while not ts.at_kind("eof"):
        sigs.append(TypeParser(ts).parse_rtype())
    if len(sigs) == 1:
        return Annot("signature", name, sigs[0], None, span)
    bad = [s for s in sigs if not isinstance(s, RFun)]
    if bad:
        raise TypeParseError("stacked annotation signatures must all be"
                             " function types", span)
    return Annot("signature", name, RInter(tuple(sigs)), None, span)


def _expect_eof(ts: TokenStream):
    if not ts.at_kind("eof"):
        t = ts.peek()
        raise TypeParseError(f"unexpected {t.text!r} in annotation", t.span)


def parse_qualifier_line(line: str, fname: str, lineno: int) -> Pred:
    toks = lex(line, fname)
    ts = TokenStream(toks)
    pred = PredParser(ts, allow_placeholder=True).parse_pred()
    if not ts.at_kind("eof"):
        t = ts.peek()
        raise TypeParseError(f"unexpected {t.text!r} in qualifier", t.span)
    return pred
