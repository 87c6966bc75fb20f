"""Recursive-descent parser for the concrete TypeScript-like surface
language, producing raw declarations whose types still contain unresolved
name applications (see types_parser.TypeResolver)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..syntax import (
    EConst, EFieldRead, EFuncCall, EMethodCall, ENew, EThis, EVar, ECast,
    EArgsLen, Expr, Node, NULL, P_TRUE, Pred, RType, SExprStmt,
    SFieldAssign, SAssign, SIte, SSkip, SVarDecl, SWhile, SourceSpan,
    Stmt, UNDEFINED, next_node_id, p_and, seq_stmts,
)
from .lexer import TokenStream, lex
from .types_parser import (
    Annot, ParseErrorBase, TypeParser, parse_annotation,
)


class ParseError(ParseErrorBase):
    pass


_tmp_counter = itertools.count(0)


def reset_tmp_counter():
    global _tmp_counter
    _tmp_counter = itertools.count(0)


def fresh_tmp() -> str:
    """A variable name no source program can write."""
    return f"$t{next(_tmp_counter)}"


# Frontend-only forms, eliminated by the desugar pass.


@dataclass
class ETernary(Node):
    cond: Expr
    then_e: Expr
    else_e: Expr


@dataclass
class SReturn(Node):
    expr: Optional[Expr]


# Raw declarations (types unresolved until the whole file is read).


@dataclass
class RawParam:
    name: str
    rtype: Optional[RType]
    span: SourceSpan


@dataclass
class RawFunc:
    name: str
    params: list
    ret: Optional[RType]
    annot_sig: Optional[RType]
    stmts: list
    span: SourceSpan
    is_ctor: bool = False
    precond: Pred = P_TRUE


@dataclass
class RawField:
    mut: str
    name: str
    rtype: RType
    span: SourceSpan


@dataclass
class RawClass:
    name: str
    parent: Optional[str]
    invariant: Pred
    fields: list
    methods: list
    span: SourceSpan


@dataclass
class RawAlias:
    name: str
    params: list
    body: RType
    span: SourceSpan


@dataclass
class RawGhost:
    name: str
    sig: RType
    span: SourceSpan


@dataclass
class RawProgram:
    aliases: list
    classes: list
    functions: list
    ghosts: list
    top: list
    file: str


_ASSIGN_OPS = {"=", "+=", "-=", "++", "--"}


def _is_element(e: Expr) -> bool:
    """An array element `a[i]`, which the parser reads as `get(a, i)`."""
    return isinstance(e, EFuncCall) and isinstance(e.callee, EVar) and \
        e.callee.name == "get"


class Parser:
    def __init__(self, text: str, fname: str = "<input>"):
        self.fname = fname
        self.ts = TokenStream(lex(text, fname))

    # -- program structure -------------------------------------------------

    def parse_program(self) -> RawProgram:
        prog = RawProgram([], [], [], [], [], self.fname)
        pending: Optional[Annot] = None
        ts = self.ts
        while not ts.at_kind("eof"):
            tok = ts.peek()
            if tok.kind == "annot":
                ts.next()
                ann = parse_annotation(tok.text, tok.span)
                if ann.kind == "ghost":
                    prog.ghosts.append(RawGhost(ann.name, ann.rtype, ann.span))
                    continue
                if ann.kind == "invariant":
                    raise ParseError("invariant annotation outside a class",
                                     tok.span)
                if pending is not None:
                    raise ParseError("dangling annotation", tok.span)
                pending = ann
                continue
            if ts.at("type"):
                if pending:
                    raise ParseError("annotation not allowed on type alias",
                                     pending.span)
                prog.aliases.append(self._type_alias())
                continue
            if ts.at("class"):
                if pending:
                    raise ParseError("annotation not allowed on class",
                                     pending.span)
                prog.classes.append(self._class_decl())
                continue
            if ts.at("function"):
                prog.functions.append(self._function(pending))
                pending = None
                continue
            if pending is not None:
                raise ParseError("annotation must precede a function",
                                 pending.span)
            prog.top.extend(self._stmt())
        if pending is not None:
            raise ParseError("annotation at end of input", pending.span)
        return prog

    def _type_alias(self) -> RawAlias:
        ts = self.ts
        start = ts.expect("type").span
        name = ts.expect_ident("alias name").text
        params: list[str] = []
        if ts.eat("<"):
            params.append(ts.expect_ident("alias parameter").text)
            while ts.eat(","):
                params.append(ts.expect_ident("alias parameter").text)
            ts.expect(">")
        ts.expect("=", "in type alias")
        body = TypeParser(ts).parse_rtype()
        ts.eat(";")
        return RawAlias(name, params, body, start)

    def _class_decl(self) -> RawClass:
        ts = self.ts
        start = ts.expect("class").span
        name = ts.expect_ident("class name").text
        parent = None
        if ts.eat("extends"):
            parent = ts.expect_ident("parent class name").text
        ts.expect("{", "to open class body")
        fields: list[RawField] = []
        methods: list[RawFunc] = []
        invariant: Pred = P_TRUE
        pending: Optional[Annot] = None
        while not ts.eat("}"):
            tok = ts.peek()
            if tok.kind == "eof":
                raise ParseError("unterminated class body", tok.span)
            if tok.kind == "annot":
                ts.next()
                ann = parse_annotation(tok.text, tok.span)
                if ann.kind == "invariant":
                    invariant = p_and(invariant, ann.pred)
                    continue
                if ann.kind == "signature":
                    if pending is not None:
                        raise ParseError("dangling annotation", tok.span)
                    pending = ann
                    continue
                raise ParseError("unsupported annotation in class body",
                                 tok.span)
            if ts.at("immutable"):
                ts.next()
                fields.append(self._field_decl("imm"))
                continue
            if ts.at("constructor"):
                methods.append(self._method(pending, ctor=True))
                pending = None
                continue
            if tok.kind == "ident" and ts.at(":", 1):
                fields.append(self._field_decl("mut"))
                continue
            if tok.kind == "ident" and ts.at("(", 1):
                methods.append(self._method(pending))
                pending = None
                continue
            raise ParseError(f"unexpected {tok.text!r} in class body",
                             tok.span)
        return RawClass(name, parent, invariant, fields, methods, start)

    def _field_decl(self, mut: str) -> RawField:
        ts = self.ts
        name_tok = ts.expect_ident("field name")
        if name_tok.text in ("length", "slice"):
            raise ParseError(
                f"field name {name_tok.text!r} is reserved for arrays",
                name_tok.span)
        ts.expect(":", "after field name")
        rt = TypeParser(ts).parse_rtype()
        ts.expect(";", "after field declaration")
        return RawField(mut, name_tok.text, rt, name_tok.span)

    def _method(self, annot: Optional[Annot], ctor: bool = False) -> RawFunc:
        ts = self.ts
        if ctor:
            start = ts.expect("constructor").span
            name = "constructor"
        else:
            tok = ts.expect_ident("method name")
            start, name = tok.span, tok.text
        params = self._params()
        ret = None
        if ts.eat(":"):
            ret = TypeParser(ts).parse_rtype()
        stmts = self._block()
        sig = annot.rtype if annot else None
        return RawFunc(name, params, ret, sig, stmts, start, is_ctor=ctor)

    def _function(self, annot: Optional[Annot]) -> RawFunc:
        ts = self.ts
        start = ts.expect("function").span
        name = ts.expect_ident("function name").text
        if annot and annot.name and annot.name != name:
            raise ParseError(
                f"annotation names {annot.name!r} but function is {name!r}",
                annot.span)
        params = self._params()
        ret = None
        if ts.eat(":"):
            ret = TypeParser(ts).parse_rtype()
        stmts = self._block()
        sig = annot.rtype if annot else None
        return RawFunc(name, params, ret, sig, stmts, start)

    def _params(self) -> list:
        ts = self.ts
        ts.expect("(", "to open parameter list")
        out: list[RawParam] = []
        if not ts.at(")"):
            while True:
                tok = ts.expect_ident("parameter name")
                rt = None
                if ts.eat(":"):
                    rt = TypeParser(ts).parse_rtype()
                out.append(RawParam(tok.text, rt, tok.span))
                if not ts.eat(","):
                    break
        ts.expect(")")
        return out

    # -- statements ---------------------------------------------------------

    def _block(self) -> list:
        ts = self.ts
        ts.expect("{", "to open block")
        out: list = []
        while not ts.eat("}"):
            if ts.at_kind("eof"):
                raise ParseError("unterminated block", ts.peek().span)
            out.extend(self._stmt())
        return out

    def _stmt(self) -> list:
        """Parse one statement; var declarations and desugarings may yield
        several."""
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "annot":
            raise ParseError("annotation not allowed here", tok.span)
        if ts.at("{"):
            return self._block()
        if ts.eat(";"):
            return [SSkip(span=tok.span, nid=next_node_id())]
        if ts.at("var"):
            return self._var_decl()
        if ts.at("if"):
            return [self._if_stmt()]
        if ts.at("while"):
            return [self._while_stmt()]
        if ts.at("for"):
            return self._for_stmt()
        if ts.at("return"):
            ts.next()
            expr = None
            if not ts.at(";"):
                expr = self.parse_expr()
            ts.expect(";", "after return")
            return [SReturn(expr, span=tok.span, nid=next_node_id())]
        if ts.at("function"):
            # nested function: kept as a marker statement, lifted by desugar
            fn = self._function(None)
            return [NestedFunc(fn, span=fn.span, nid=next_node_id())]
        return self._simple_stmt()

    def _var_decl(self) -> list:
        ts = self.ts
        ts.expect("var")
        out: list = []
        while True:
            tok = ts.expect_ident("variable name")
            if ts.eat("="):
                init = self.parse_expr()
            else:
                init = EConst(UNDEFINED, span=tok.span, nid=next_node_id())
            out.append(SVarDecl(tok.text, init, span=tok.span,
                                nid=next_node_id()))
            if not ts.eat(","):
                break
        ts.expect(";", "after var declaration")
        return out

    def _if_stmt(self) -> Stmt:
        ts = self.ts
        start = ts.expect("if").span
        ts.expect("(")
        cond = self.parse_expr()
        ts.expect(")")
        then_s = seq_stmts(self._stmt_or_block(), start)
        if ts.eat("else"):
            else_s = seq_stmts(self._stmt_or_block(), start)
        else:
            else_s = SSkip(span=start, nid=next_node_id())
        return SIte(cond, then_s, else_s, span=start, nid=next_node_id())

    def _while_stmt(self) -> Stmt:
        ts = self.ts
        start = ts.expect("while").span
        ts.expect("(")
        cond = self.parse_expr()
        ts.expect(")")
        body = seq_stmts(self._stmt_or_block(), start)
        return SWhile(cond, body, span=start, nid=next_node_id())

    def _for_stmt(self) -> list:
        ts = self.ts
        start = ts.expect("for").span
        ts.expect("(")
        init: list = []
        if not ts.at(";"):
            if ts.at("var"):
                init = self._var_decl()
            else:
                init = self._assign_no_semi()
                ts.expect(";", "after for-init")
        else:
            ts.next()
        if not ts.at(";"):
            cond = self.parse_expr()
        else:
            cond = EConst(True, span=start, nid=next_node_id())
        ts.expect(";", "after for-condition")
        upd: list = []
        if not ts.at(")"):
            upd = self._assign_no_semi()
        ts.expect(")")
        body_stmts = self._stmt_or_block()
        body = seq_stmts(body_stmts + upd, start)
        return init + [SWhile(cond, body, span=start, nid=next_node_id())]

    def _stmt_or_block(self) -> list:
        if self.ts.at("{"):
            return self._block()
        return self._stmt()

    def _simple_stmt(self) -> list:
        s = self._assign_no_semi()
        self.ts.expect(";", "after statement")
        return s

    def _assign_no_semi(self) -> list:
        ts = self.ts
        start = ts.peek().span
        lhs = self.parse_expr()
        tok = ts.peek()
        if tok.kind == "sym" and tok.text in _ASSIGN_OPS:
            op = ts.next().text
            if op == "=":
                return [self._make_assign(lhs, self.parse_expr(), start)]
            pre = self._bind_target(lhs, start)
            if op in ("++", "--"):
                rhs = EFuncCall(
                    EVar("+" if op == "++" else "-", span=start,
                         nid=next_node_id()),
                    [lhs, EConst(1, span=start, nid=next_node_id())],
                    span=start, nid=next_node_id())
            else:
                r = self.parse_expr()
                rhs = EFuncCall(
                    EVar(op[0], span=start, nid=next_node_id()),
                    [lhs, r], span=start, nid=next_node_id())
            return pre + [self._make_assign(lhs, rhs, start)]
        return [SExprStmt(lhs, span=start, nid=next_node_id())]

    def _bind_target(self, lhs: Expr, span: SourceSpan) -> list:
        """Make a compound assignment, which reads its target and then
        writes it, evaluate the target once: each operand of a field or
        element target that is not a variable, `this` or a constant moves
        into a fresh temporary, declared by the returned statements."""
        pre: list = []

        def once(e: Expr) -> Expr:
            if isinstance(e, (EVar, EThis, EConst)):
                return e
            tmp = fresh_tmp()
            pre.append(SVarDecl(tmp, e, span=span, nid=next_node_id()))
            return EVar(tmp, span=span, nid=next_node_id())

        if isinstance(lhs, EFieldRead):
            lhs.obj = once(lhs.obj)
        elif _is_element(lhs):
            lhs.args = [once(a) for a in lhs.args]
        return pre

    def _make_assign(self, lhs: Expr, rhs: Expr, span: SourceSpan) -> Stmt:
        if isinstance(lhs, EVar):
            return SAssign(lhs.name, rhs, span=span, nid=next_node_id())
        if isinstance(lhs, EFieldRead):
            return SFieldAssign(lhs.obj, lhs.fname, rhs, span=span,
                                nid=next_node_id())
        if _is_element(lhs):
            arr, idx = lhs.args
            call = EFuncCall(EVar("set", span=span, nid=next_node_id()),
                             [arr, idx, rhs], span=span, nid=next_node_id())
            return SExprStmt(call, span=span, nid=next_node_id())
        raise ParseError("invalid assignment target", span)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._ternary()

    def _ternary(self) -> Expr:
        cond = self._binary(0)
        if self.ts.at("?"):
            span = self.ts.next().span
            then_e = self.parse_expr()
            self.ts.expect(":", "in conditional expression")
            else_e = self.parse_expr()
            return ETernary(cond, then_e, else_e, span=span,
                            nid=next_node_id())
        return cond

    _BIN_LEVELS = [
        ["||"],
        ["&&"],
        ["===", "!==", "==", "!="],
        ["<", "<=", ">", ">="],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _binary(self, level: int) -> Expr:
        if level >= len(self._BIN_LEVELS):
            return self._unary()
        ops = self._BIN_LEVELS[level]
        e = self._binary(level + 1)
        while self.ts.peek().kind == "sym" and self.ts.peek().text in ops:
            tok = self.ts.next()
            rhs = self._binary(level + 1)
            e = EFuncCall(EVar(tok.text, span=tok.span, nid=next_node_id()),
                          [e, rhs], span=tok.span, nid=next_node_id())
        return e

    def _unary(self) -> Expr:
        ts = self.ts
        tok = ts.peek()
        if ts.eat("!"):
            return EFuncCall(EVar("!", span=tok.span, nid=next_node_id()),
                             [self._unary()], span=tok.span,
                             nid=next_node_id())
        if ts.eat("-"):
            inner = self._unary()
            if isinstance(inner, EConst) and isinstance(inner.value, int) and \
                    not isinstance(inner.value, bool):
                inner.value = -inner.value
                return inner
            return EFuncCall(EVar("neg", span=tok.span, nid=next_node_id()),
                             [inner], span=tok.span, nid=next_node_id())
        if ts.at("typeof"):
            ts.next()
            return EFuncCall(EVar("typeof", span=tok.span,
                                  nid=next_node_id()),
                             [self._unary()], span=tok.span,
                             nid=next_node_id())
        if ts.at("<"):
            # cast: <T> e
            ts.next()
            rt = TypeParser(ts).parse_rtype()
            ts.expect(">", "to close cast type")
            inner = self._unary()
            return ECast(rt, inner, span=tok.span, nid=next_node_id())
        return self._postfix()

    def _postfix(self) -> Expr:
        e = self._primary()
        ts = self.ts
        while True:
            tok = ts.peek()
            if ts.at("."):
                ts.next()
                fld = ts.expect_ident("member name")
                if isinstance(e, EVar) and e.name == "arguments":
                    if fld.text != "length":
                        raise ParseError("only arguments.length is supported",
                                         fld.span)
                    e = EArgsLen(span=tok.span, nid=next_node_id())
                    continue
                if fld.text == "length":
                    e = EFuncCall(EVar("length", span=fld.span,
                                       nid=next_node_id()), [e],
                                  span=fld.span, nid=next_node_id())
                    continue
                if ts.at("("):
                    args = self._args()
                    if fld.text == "slice":
                        e = EFuncCall(EVar("slice", span=fld.span,
                                           nid=next_node_id()), [e, *args],
                                      span=fld.span, nid=next_node_id())
                    else:
                        e = EMethodCall(e, fld.text, args, span=fld.span,
                                        nid=next_node_id())
                    continue
                e = EFieldRead(e, fld.text, span=fld.span, nid=next_node_id())
                continue
            if ts.at("["):
                ts.next()
                idx = self.parse_expr()
                ts.expect("]")
                e = EFuncCall(EVar("get", span=tok.span, nid=next_node_id()),
                              [e, idx], span=tok.span, nid=next_node_id())
                continue
            if ts.at("("):
                args = self._args()
                e = EFuncCall(e, args, span=tok.span, nid=next_node_id())
                continue
            return e

    def _args(self) -> list:
        ts = self.ts
        ts.expect("(")
        args: list = []
        if not ts.at(")"):
            args.append(self.parse_expr())
            while ts.eat(","):
                args.append(self.parse_expr())
        ts.expect(")")
        return args

    def _primary(self) -> Expr:
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "num":
            ts.next()
            return EConst(int(tok.text, 0), span=tok.span, nid=next_node_id())
        if tok.kind == "str":
            ts.next()
            return EConst(tok.text, span=tok.span, nid=next_node_id())
        if tok.text == "true":
            ts.next()
            return EConst(True, span=tok.span, nid=next_node_id())
        if tok.text == "false":
            ts.next()
            return EConst(False, span=tok.span, nid=next_node_id())
        if tok.text == "undefined":
            ts.next()
            return EConst(UNDEFINED, span=tok.span, nid=next_node_id())
        if tok.text == "null":
            ts.next()
            return EConst(NULL, span=tok.span, nid=next_node_id())
        if tok.text == "this":
            ts.next()
            return EThis(span=tok.span, nid=next_node_id())
        if tok.text == "new":
            ts.next()
            cname = ts.expect_ident("class name").text
            if cname == "Array":
                if ts.at("<"):
                    raise ParseError(
                        "explicit element types on new Array are not"
                        " supported (elements default to number)", tok.span)
                args = self._args()
                if len(args) != 1:
                    raise ParseError("new Array takes one length argument",
                                     tok.span)
                return EFuncCall(EVar("newarray#", span=tok.span,
                                      nid=next_node_id()), args,
                                 span=tok.span, nid=next_node_id())
            args = self._args()
            return ENew(cname, args, span=tok.span, nid=next_node_id())
        if tok.text == "(":
            ts.next()
            e = self.parse_expr()
            ts.expect(")")
            return e
        if tok.text == "[":
            ts.next()
            elems: list = []
            if not ts.at("]"):
                elems.append(self.parse_expr())
                while ts.eat(","):
                    elems.append(self.parse_expr())
            ts.expect("]")
            return EFuncCall(EVar("arraylit#", span=tok.span,
                                  nid=next_node_id()), elems,
                             span=tok.span, nid=next_node_id())
        if tok.kind == "ident":
            ts.next()
            return EVar(tok.text, span=tok.span, nid=next_node_id())
        raise ParseError(f"expected an expression, found {tok.text!r}",
                         tok.span)


@dataclass
class NestedFunc(Node):
    """Marker statement for a nested function declaration (lifted later)."""

    fn: RawFunc
