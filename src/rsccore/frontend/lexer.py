"""Tokenizer for source files and for the annotation/type mini-language."""

from __future__ import annotations

from dataclasses import dataclass

from ..syntax import SourceSpan


class LexError(Exception):
    def __init__(self, msg: str, span: SourceSpan):
        super().__init__(f"{span}: {msg}")
        self.msg = msg
        self.span = span


KEYWORDS = {
    "function", "var", "if", "else", "while", "for", "return", "new",
    "class", "extends", "constructor", "immutable", "type", "this",
    "true", "false", "undefined", "null", "typeof", "requires",
    "invariant", "ghost", "exists", "in",
}

# longest-match first
SYMBOLS = [
    "===", "!==", "=>", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "/\\", "::", "(", ")", "{", "}", "[", "]", "<", ">", "=",
    "+", "-", "*", "/", "%", "!", "?", ":", ";", ",", ".", "|", "★", "_",
]


@dataclass
class Token:
    kind: str  # ident | keyword | num | str | sym | annot | eof
    text: str
    span: SourceSpan


def _ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _ident_char(c: str) -> bool:
    return c.isalnum() or c in "_$#"


def lex(src: str, fname: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)

    def span_from(start: int, sl: int, sc: int, end: int) -> SourceSpan:
        return SourceSpan(fname, start, end, sl, sc, line, col)

    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("/*@", i):
            sl, sc, start = line, col, i
            j = src.find("*/", i + 3)
            if j < 0:
                raise LexError("unterminated annotation comment",
                               span_from(start, sl, sc, n))
            text = src[i + 3:j]
            for ch in src[i:j + 2]:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = j + 2
            toks.append(Token("annot", text, span_from(start, sl, sc, i)))
            continue
        if src.startswith("/*", i):
            sl, sc, start = line, col, i
            j = src.find("*/", i + 2)
            if j < 0:
                raise LexError("unterminated comment",
                               span_from(start, sl, sc, n))
            for ch in src[i:j + 2]:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = j + 2
            continue
        if c.isdigit():
            sl, sc, start = line, col, i
            j = i
            if src.startswith(("0x", "0X"), i):
                j = i + 2
                while j < n and src[j] in "0123456789abcdefABCDEF":
                    j += 1
            else:
                while j < n and src[j].isdigit():
                    j += 1
            text = src[i:j]
            col += j - i
            i = j
            toks.append(Token("num", text, span_from(start, sl, sc, i)))
            continue
        if c == '"' or c == "'":
            quote = c
            sl, sc, start = line, col, i
            j = i + 1
            buf = []
            while j < n and src[j] != quote:
                if src[j] == "\\" and j + 1 < n:
                    buf.append(src[j + 1])
                    j += 2
                else:
                    buf.append(src[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string",
                               span_from(start, sl, sc, n))
            col += j + 1 - i
            i = j + 1
            toks.append(Token("str", "".join(buf), span_from(start, sl, sc, i)))
            continue
        if _ident_start(c):
            sl, sc, start = line, col, i
            j = i
            while j < n and _ident_char(src[j]):
                j += 1
            text = src[i:j]
            col += j - i
            i = j
            kind = "keyword" if text in KEYWORDS else "ident"
            toks.append(Token(kind, text, span_from(start, sl, sc, i)))
            continue
        for sym in SYMBOLS:
            if src.startswith(sym, i):
                sl, sc, start = line, col, i
                col += len(sym)
                i += len(sym)
                toks.append(Token("sym", sym, span_from(start, sl, sc, i)))
                break
        else:
            raise LexError(f"unsupported character {c!r}",
                           span_from(i, line, col, i + 1))
    toks.append(Token("eof", "", SourceSpan(fname, n, n, line, col, line, col)))
    return toks


class TokenStream:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.text == text and t.kind in ("sym", "keyword")

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str, what: str = "") -> Token:
        if not self.at(text):
            t = self.peek()
            found = repr(t.text) if t.text else "end of input"
            msg = f"expected {text!r}"
            if what:
                msg += f" {what}"
            msg += f", found {found}"
            from .parser import ParseError
            raise ParseError(msg, t.span)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ident":
            found = repr(t.text) if t.text else "end of input"
            from .parser import ParseError
            raise ParseError(f"expected {what}, found {found}", t.span)
        return self.next()
