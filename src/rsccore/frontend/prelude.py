"""Builtin type aliases and operation signatures.

Signatures are written in the annotation grammar and parsed at import
time, so the prelude exercises the same machinery as user annotations.
"""

from __future__ import annotations

from functools import lru_cache

from ..syntax import NO_SPAN, RType, TypeAliasDecl
from .lexer import TokenStream, lex
from .types_parser import TypeParser

# name -> (comma-separated parameters, body)
PRELUDE_ALIASES: dict[str, tuple[str, str]] = {
    "nat": ("", "{v:number | 0 <= v}"),
    "pos": ("", "{v:number | 0 < v}"),
    "natN": ("n", "{v:nat | v = n}"),
    "natLE": ("n", "{v:nat | v <= n}"),
    "idx": ("a", "{v:nat | v < len(a)}"),
}

# Array reads/writes/length are desugared to these calls; operators are
# reflected exactly into the logic.
BUILTIN_SIGS: dict[str, str] = {
    "get": "<T>(a:T[], i:idx<a>) => T",
    "set": "<T>(a:T[], i:idx<a>, e:T) => void",
    "length": "<T>(a:T[]) => natN<len(a)>",
    "slice": "<T>(a:T[], s:{v:nat | v <= len(a)}) => {v:T[] | len(v) = len(a) - s}",
    "assert": "<A>(b:{v:bool | v = true}) => A",
    "typeof": "<A>(z:A) => {v:string | v = ttag(z)}",
    "newarray#": "(n:nat) => {v:number[] | len(v) = n}",
    "+": "(x:number, y:number) => {v:number | v = x + y}",
    "-": "(x:number, y:number) => {v:number | v = x - y}",
    "*": "(x:number, y:number) => {v:number | v = x * y}",
    "/": "(x:number, y:number) => {v:number | v = x / y} requires y != 0",
    "%": "(x:number, y:number) => {v:number | v = x % y} requires y != 0",
    "neg": "(x:number) => {v:number | v = 0 - x}",
    "<": "(x:number, y:number) => {v:bool | v = (x < y)}",
    "<=": "(x:number, y:number) => {v:bool | v = (x <= y)}",
    ">": "(x:number, y:number) => {v:bool | v = (x > y)}",
    ">=": "(x:number, y:number) => {v:bool | v = (x >= y)}",
    "===": "<A>(x:A, y:A) => {v:bool | v = (x = y)}",
    "==": "<A>(x:A, y:A) => {v:bool | v = (x = y)}",
    "!==": "<A>(x:A, y:A) => {v:bool | v = (x != y)}",
    "!=": "<A>(x:A, y:A) => {v:bool | v = (x != y)}",
    "&&": "(x:bool, y:bool) => {v:bool | v = (x && y)}",
    "||": "(x:bool, y:bool) => {v:bool | v = (x || y)}",
    "!": "(x:bool) => {v:bool | v = !x}",
}

BUILTIN_NAMES = frozenset(BUILTIN_SIGS) | {"arraylit#"}


def _parse_sig(text: str) -> RType:
    ts = TokenStream(lex(text, "<prelude>"))
    return TypeParser(ts).parse_rtype()


@lru_cache(maxsize=1)
def raw_prelude_aliases() -> dict:
    """Alias table with unresolved bodies, merged into every program."""
    out = {}
    for name, (params, body) in PRELUDE_ALIASES.items():
        plist = [p.strip() for p in params.split(",") if p.strip()]
        out[name] = TypeAliasDecl(name, plist, _parse_sig(body), NO_SPAN)
    return out


@lru_cache(maxsize=1)
def load_prelude() -> dict:
    """Builtin signatures, resolved against the prelude aliases."""
    from .types_parser import TypeResolver
    resolver = TypeResolver(raw_prelude_aliases(), set())
    out: dict[str, RType] = {}
    for name, sig in BUILTIN_SIGS.items():
        out[name] = resolver.resolve(_parse_sig(sig), NO_SPAN)
    return out
