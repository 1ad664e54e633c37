"""Parsers for processes, types, entries and context files.

Grammar (loosest first)::

    P  ::= P "|" P | "!" P | "0" | ident "!" ident "." P
         | ident "?" "(" ident ")" "." P | "new" ident ":" T "." P | "(" P ")"
    T  ::= S | "<" S "," S ">"
    S  ::= ("lin" | "un") PT | ident | "rec" ident "." S
    PT ::= "?" "(" T ")" "." S | "!" "(" T ")" "." S | "end"

Context files are UTF-8, one ``name : T`` binding per line, ``#`` comments.
Entry syntax extends types with the consumed-endpoint marker ``◦`` (ASCII
alias ``void``), alone or inside a ``<_, _>`` pair.

Prefix continuations, replication bodies and restriction bodies bind tighter
than ``|``; parenthesise a parallel there.  Recursive types must be
contractive and closed.  The parser checks both as it reads, and reports the
offending token: an unbound type variable, or the ``rec`` whose body, past its
own chain of ``rec`` binders, is its own variable.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .syntax import (
    ChanType,
    End,
    Endpoint,
    Input,
    New,
    Output,
    Par,
    PreType,
    Process,
    Qual,
    Qualified,
    Rec,
    Recv,
    Repl,
    Send,
    Type,
    TypeVar,
    Zero,
)
from .contexts import VOID, Context, Entry, Item, Pair, Single


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


_KEYWORDS = frozenset({"new", "lin", "un", "rec", "end", "void"})

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<nl>\n)
    | (?P<comment>\#[^\n]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<void>◦)
    | (?P<punct>[!?().|:,<>]|0)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # 'ident', keyword, 'void', a punctuation char, '0', or 'eof'
    text: str
    line: int
    column: int


def _tokenize(src: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group()
        if m.lastgroup == "ws" or m.lastgroup == "comment":
            pass
        elif m.lastgroup == "nl":
            line += 1
            col = 0
        elif m.lastgroup == "ident":
            kind = text if text in _KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
        elif m.lastgroup == "void":
            tokens.append(Token("void", text, line, col))
        else:
            tokens.append(Token(text, text, line, col))
        col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src: str, what: str):
        self.tokens = _tokenize(src)
        self.index = 0
        self.what = what  # what the types read are, in error messages
        self.scope: list[str] = []  # recursion variables bound here
        self.tail: str | None = None  # the last endpoint read, past its recs, if a variable

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    # -- processes ---------------------------------------------------------

    def process(self) -> Process:
        left = self.factor()
        while self.at("|"):
            tok = self.next()
            right = self.factor()
            left = Par(left, right, pos=(tok.line, tok.column))
        return left

    def factor(self) -> Process:
        tok = self.peek()
        if tok.kind == "0":
            self.next()
            return Zero(pos=(tok.line, tok.column))
        if tok.kind == "!":
            self.next()
            return Repl(self.factor(), pos=(tok.line, tok.column))
        if tok.kind == "(":
            self.next()
            inner = self.process()
            self.expect(")")
            return inner
        if tok.kind == "new":
            self.next()
            binder = self.expect("ident").text
            self.expect(":")
            annot = self.type_()
            self.expect(".")
            return New(binder, annot, self.factor(), pos=(tok.line, tok.column))
        if tok.kind == "ident":
            self.next()
            if self.at("!"):
                self.next()
                arg = self.expect("ident").text
                self.expect(".")
                return Output(tok.text, arg, self.factor(), pos=(tok.line, tok.column))
            if self.at("?"):
                self.next()
                self.expect("(")
                binder = self.expect("ident").text
                self.expect(")")
                self.expect(".")
                return Input(tok.text, binder, self.factor(), pos=(tok.line, tok.column))
            self.fail("expected '!' or '?' after channel name")
        self.fail(f"expected a process, found {tok.text or 'end of input'!r}", tok)

    # -- types -------------------------------------------------------------

    def type_(self) -> Type:
        if self.at("<"):
            self.next()
            left = self.endpoint()
            self.expect(",")
            right = self.endpoint()
            self.expect(">")
            return ChanType(left, right)
        return self.endpoint()

    def endpoint(self) -> Endpoint:
        tok = self.peek()
        if tok.kind in ("lin", "un"):
            self.next()
            qual = Qual.LIN if tok.kind == "lin" else Qual.UN
            pre = self.pre_type()
            self.tail = None
            return Qualified(qual, pre)
        if tok.kind == "rec":
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            self.scope.append(var)
            body = self.endpoint()
            self.scope.pop()
            # The chain's inner recs have already tested their own variables.
            if self.tail == var:
                self.fail(
                    f"non-contractive recursive type in {self.what}: "
                    f"rec {var}. ... resolves to one of its own binders",
                    tok,
                )
            return Rec(var, body)
        if tok.kind == "ident":
            self.next()
            if tok.text not in self.scope:
                self.fail(f"unbound type variable {tok.text!r} in {self.what}", tok)
            self.tail = tok.text
            return TypeVar(tok.text)
        self.fail(f"expected a type, found {tok.text or 'end of input'!r}", tok)

    def pre_type(self) -> PreType:
        tok = self.peek()
        if tok.kind == "end":
            self.next()
            return End()
        if tok.kind in ("?", "!"):
            self.next()
            self.expect("(")
            payload = self.type_()
            self.expect(")")
            self.expect(".")
            cont = self.endpoint()
            return Recv(payload, cont) if tok.kind == "?" else Send(payload, cont)
        self.fail(f"expected '?', '!' or 'end', found {tok.text or 'end of input'!r}", tok)

    # -- entries -----------------------------------------------------------

    def entry(self) -> Entry:
        if self.at("<"):
            self.next()
            left = self.item()
            self.expect(",")
            right = self.item()
            self.expect(">")
            return Pair(left, right)
        return Single(self.item())

    def item(self) -> Item:
        if self.at("void"):
            self.next()
            return VOID
        return self.endpoint()


def _parse(src: str, rule: Callable, what: str):
    """Parse all of ``src`` with ``rule``, calling its types ``what`` in
    errors; the parser recurses on nesting depth, and too deep an input is a
    ParseError."""
    parser = _Parser(src, what)
    try:
        result = rule(parser)
        parser.expect("eof")
    except RecursionError:
        tok = parser.peek()
        raise ParseError("input too deep to parse", tok.line, tok.column) from None
    return result


def parse_process(src: str) -> Process:
    return _parse(src, _Parser.process, "restriction annotation")


def parse_type(src: str) -> Type:
    return _parse(src, _Parser.type_, "type")


def parse_entry(src: str) -> Entry:
    return _parse(src, _Parser.entry, "entry")


def parse_context(src: str) -> Context:
    """Parse a context file: one ``name : entry`` per line, ``#`` comments."""
    entries: list[tuple[str, Entry]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name_part, sep, entry_part = line.partition(":")
        name = name_part.strip()
        if not sep or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", name or ""):
            raise ParseError("expected 'name : type' binding", lineno, 1)
        if name in seen:
            raise ParseError(f"duplicate name {name!r} in context", lineno, 1)
        seen.add(name)
        try:
            entries.append((name, parse_entry(entry_part)))
        except ParseError as err:
            column = raw.index(":") + 1 + err.column  # the entry starts after the colon
            raise ParseError(f"in binding for {name!r}: {err.message}", lineno, column)
    return Context(entries)
