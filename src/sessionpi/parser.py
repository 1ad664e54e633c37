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
contractive and closed; both are checked at parse time.
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
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.index = 0

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
            return Qualified(qual, self.pre_type())
        if tok.kind == "rec":
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            return Rec(var, self.endpoint())
        if tok.kind == "ident":
            self.next()
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


def _check_closed_contractive(t: Type, where: str = "type"):
    """Reject free type variables and non-contractive recursion."""

    def walk(s, bound: frozenset[str]):
        match s:
            case TypeVar(name):
                if name not in bound:
                    raise ParseError(f"unbound type variable {name!r} in {where}", 0, 0)
            case Rec(_, _):
                chain = []
                inner = s
                while isinstance(inner, Rec):
                    chain.append(inner.var)
                    inner = inner.body
                if isinstance(inner, TypeVar) and inner.name in chain:
                    raise ParseError(
                        f"non-contractive recursive type in {where}: "
                        f"rec {s.var}. ... resolves to one of its own binders",
                        0,
                        0,
                    )
                walk(s.body, bound | {s.var})
            case Qualified(_, Recv(payload, cont)) | Qualified(_, Send(payload, cont)):
                walk_type(payload, bound)
                walk(cont, bound)
            case Qualified(_, End()):
                pass

    def walk_type(t2, bound: frozenset[str]):
        if isinstance(t2, ChanType):
            walk(t2.left, bound)
            walk(t2.right, bound)
        else:
            walk(t2, bound)

    walk_type(t, frozenset())


def _validate_annotations(p: Process):
    match p:
        case New(_, annot, cont):
            _check_closed_contractive(annot, "restriction annotation")
            _validate_annotations(cont)
        case Par(left, right):
            _validate_annotations(left)
            _validate_annotations(right)
        case Repl(body) | Output(_, _, body) | Input(_, _, body):
            _validate_annotations(body)
        case Zero():
            pass


def _parse(src: str, rule: Callable, validate: Callable):
    """Parse all of ``src`` with ``rule``, then ``validate`` the result; both
    recurse on nesting depth, and too deep an input is a ParseError."""
    parser = _Parser(src)
    try:
        result = rule(parser)
        parser.expect("eof")
        validate(result)
    except RecursionError:
        tok = parser.peek()
        raise ParseError("input too deep to parse", tok.line, tok.column) from None
    return result


def _validate_entry(e: Entry):
    for item in (e.item,) if isinstance(e, Single) else (e.left, e.right):
        if item is not VOID:
            _check_closed_contractive(item, "entry")


def parse_process(src: str) -> Process:
    return _parse(src, _Parser.process, _validate_annotations)


def parse_type(src: str) -> Type:
    return _parse(src, _Parser.type_, _check_closed_contractive)


def parse_entry(src: str) -> Entry:
    return _parse(src, _Parser.entry, _validate_entry)


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
            raise ParseError(f"in binding for {name!r}: {err.message}", lineno, err.column)
    return Context(entries)
