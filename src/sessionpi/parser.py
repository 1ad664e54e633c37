"""Parsers for processes, types, entries and context files.

Grammar (loosest first)::

    P  ::= P "|" P | "!" P | "0" | ident "!" ident "." P
         | ident "?" "(" ident ")" "." P | "new" ident ":" T "." P | "(" P ")"
    T  ::= S | "<" S "," S ">"
    S  ::= ("lin" | "un") PT | ident | "rec" ident "." S
    PT ::= "?" "(" T ")" "." S | "!" "(" T ")" "." S | "end"

Context files are UTF-8, one ``name : T`` binding per line, ``#`` comments.
An entry is one slot, read as a ``Single``, or a ``<_, _>`` pair of slots,
read by the pair rule of ``T`` into a ``ChanType``; a slot is an ``S`` or the
consumed-endpoint marker ``◦`` (ASCII alias ``void``).

Prefix continuations, replication bodies and restriction bodies bind tighter
than ``|``; parenthesise a parallel there.  Recursive types must be
contractive and closed.  The parser checks both as it reads, and reports the
offending token: an unbound type variable, or the ``rec`` whose body, past its
own chain of ``rec`` binders, is its own variable.

Each input is scanned once: one ``findall`` splits it into parts, each a
token, newline or comment with the blanks before it, and their running
lengths give where every token ends; a character that starts no token
takes the rest of the input into the last part and is reported there, so
no stretch of the input is read twice.  The line and column of a token are
worked out from that offset only when it becomes a process node or an error.
A context file's distinct entry texts are parsed once each: lines that bind
names to the same text share its one parse.
"""

from __future__ import annotations

import re
from bisect import bisect
from itertools import accumulate, compress, repeat
from typing import Callable

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
from .contexts import VOID, Context, Entry, Item, Single


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


_KEYWORDS = frozenset({"new", "lin", "un", "rec", "end", "void"})
_BLANKS = " \t\r"  # the only blanks; any other whitespace starts no token
_PUNCT = "!?().|:,<>0"  # the one-character tokens, the process 0 among them
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# A token's kind is its text, except for identifiers, ``◦`` and the end.
_KINDS = {text: text for text in (*_KEYWORDS, *_PUNCT)} | {"◦": "void", "": "eof"}

# A part is one token, newline or comment, with the blanks before it; the
# commonest alternatives come first.  The last takes the rest of the input
# from a character that starts no token, and the scan stops before trailing
# blanks, so every part starts where the one before it ended and no blank is
# read twice.
_TOKEN = rf"[{re.escape(_PUNCT)}◦]|{_IDENT_RE.pattern}|\n|\#[^\n]*"
_TOKEN_PART_RE = re.compile(rf"[ \t\r]*(?:{_TOKEN})")
_PART_RE = re.compile(rf"[ \t\r]*(?:{_TOKEN}|(?s:.+))")
_NEWLINE_RE = re.compile(r"\n")


class _Parser:
    def __init__(self, src: str, what: str):
        parts = _PART_RE.findall(src.rstrip(_BLANKS))
        ends = list(accumulate(map(len, parts)))
        texts = list(map(str.lstrip, parts, repeat(_BLANKS)))
        self.newlines = [m.start() for m in _NEWLINE_RE.finditer(src)]
        if parts and not _TOKEN_PART_RE.fullmatch(parts[-1]):
            self.texts, self.ends = texts, ends
            self.fail(f"unexpected character {texts[-1][0]!r}", len(texts) - 1)
        if self.newlines or "#" in src:
            keep = [text != "\n" and text[0] != "#" for text in texts]
            texts, ends = list(compress(texts, keep)), list(compress(ends, keep))
        texts.append("")
        ends.append(len(src))
        self.texts = texts
        self.ends = ends  # where each token ends in ``src``
        self.kinds = list(map(_KINDS.get, texts, repeat("ident")))
        self.i = 0  # the next token
        self.what = what  # what the types read are, in error messages
        self.scope: list[str] = []  # recursion variables bound here
        self.tail: str | None = None  # the last endpoint read, past its recs, if a variable

    # -- token plumbing ----------------------------------------------------

    def pos(self, i: int) -> tuple[int, int]:
        """The line and column where token ``i`` starts, worked out only for
        the tokens that become nodes or errors."""
        offset = self.ends[i] - len(self.texts[i])
        line = bisect(self.newlines, offset)
        return line + 1, (offset - self.newlines[line - 1] if line else offset + 1)

    def expect(self, kind: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            self.fail(f"expected {kind!r}, found {self.texts[i] or 'end of input'!r}")
        self.i = i + 1
        return self.texts[i]

    def fail(self, message: str, i: int | None = None):
        raise ParseError(message, *self.pos(self.i if i is None else i))

    # -- processes ---------------------------------------------------------

    def process(self) -> Process:
        left = self.factor()
        while self.kinds[self.i] == "|":
            i = self.i
            self.i += 1
            left = Par(left, self.factor(), pos=self.pos(i))
        return left

    def factor(self) -> Process:
        i = self.i
        kind = self.kinds[i]
        self.i = i + 1
        if kind == "0":
            return Zero(pos=self.pos(i))
        if kind == "!":
            return Repl(self.factor(), pos=self.pos(i))
        if kind == "(":
            inner = self.process()
            self.expect(")")
            return inner
        if kind == "new":
            binder = self.expect("ident")
            self.expect(":")
            annot = self.type_()
            self.expect(".")
            return New(binder, annot, self.factor(), pos=self.pos(i))
        if kind == "ident":
            subject = self.texts[i]
            if self.kinds[i + 1] == "!":
                self.i += 1
                arg = self.expect("ident")
                self.expect(".")
                return Output(subject, arg, self.factor(), pos=self.pos(i))
            if self.kinds[i + 1] == "?":
                self.i += 1
                self.expect("(")
                binder = self.expect("ident")
                self.expect(")")
                self.expect(".")
                return Input(subject, binder, self.factor(), pos=self.pos(i))
            self.fail("expected '!' or '?' after channel name")
        self.fail(f"expected a process, found {self.texts[i] or 'end of input'!r}", i)

    # -- types -------------------------------------------------------------

    def type_(self, slot: Callable[[], Item] | None = None) -> Type:
        """A type; ``slot``, ``endpoint`` unless given, reads each end of a pair."""
        if self.kinds[self.i] == "<":
            slot = slot or self.endpoint
            self.i += 1
            left = slot()
            self.expect(",")
            right = slot()
            self.expect(">")
            return ChanType(left, right)
        return self.endpoint()

    def endpoint(self) -> Endpoint:
        i = self.i
        kind = self.kinds[i]
        self.i = i + 1
        if kind == "lin" or kind == "un":
            pre = self.pre_type()
            self.tail = None
            return Qualified(Qual.LIN if kind == "lin" else Qual.UN, pre)
        if kind == "rec":
            var = self.expect("ident")
            self.expect(".")
            self.scope.append(var)
            body = self.endpoint()
            self.scope.pop()
            # The chain's inner recs have already tested their own variables.
            if self.tail == var:
                self.fail(
                    f"non-contractive recursive type in {self.what}: "
                    f"rec {var}. ... resolves to one of its own binders",
                    i,
                )
            return Rec(var, body)
        if kind == "ident":
            var = self.texts[i]
            if var not in self.scope:
                self.fail(f"unbound type variable {var!r} in {self.what}", i)
            self.tail = var
            return TypeVar(var)
        self.fail(f"expected a type, found {self.texts[i] or 'end of input'!r}", i)

    def pre_type(self) -> PreType:
        i = self.i
        kind = self.kinds[i]
        self.i = i + 1
        if kind == "end":
            return End()
        if kind == "?" or kind == "!":
            self.expect("(")
            payload = self.type_()
            self.expect(")")
            self.expect(".")
            cont = self.endpoint()
            return Recv(payload, cont) if kind == "?" else Send(payload, cont)
        self.fail(f"expected '?', '!' or 'end', found {self.texts[i] or 'end of input'!r}", i)

    # -- entries -----------------------------------------------------------

    def entry(self) -> Entry:
        if self.kinds[self.i] == "<":
            return self.type_(self.item)
        return Single(self.item())

    def item(self) -> Item:
        if self.kinds[self.i] == "void":
            self.i += 1
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
        # The rule may have stepped past the end token just before.
        at = parser.pos(min(parser.i, len(parser.kinds) - 1))
        raise ParseError("input too deep to parse", *at) from None
    return result


def parse_process(src: str) -> Process:
    return _parse(src, _Parser.process, "restriction annotation")


def parse_type(src: str) -> Type:
    return _parse(src, _Parser.type_, "type")


def parse_entry(src: str) -> Entry:
    return _parse(src, _Parser.entry, "entry")


def parse_context(src: str) -> Context:
    """Parse a context file: one ``name : entry`` per line, ``#`` comments.
    Lines end at ``\\n`` alone, as they do for the tokenizer.  Each distinct
    entry text is parsed once; a text that fails is not kept, so the error
    names the first line that has it."""
    entries: list[tuple[str, Entry]] = []
    seen: set[str] = set()
    parsed: dict[str, Entry] = {}  # entry text -> its entry
    for lineno, raw in enumerate(src.split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip(_BLANKS)
        if not line.lstrip(_BLANKS):
            continue
        name_part, sep, entry_part = line.partition(":")
        name = name_part.strip(_BLANKS)
        if not sep or not _IDENT_RE.fullmatch(name):
            try:
                _Parser(name_part, "name")  # a character no token starts with comes first
            except ParseError as err:
                raise ParseError(err.message, lineno, err.column) from None
            raise ParseError("expected 'name : type' binding", lineno, 1)
        column = len(name_part) - len(name_part.lstrip(_BLANKS)) + 1  # where the name starts
        if name in _KEYWORDS:
            raise ParseError(f"keyword {name!r} cannot name a binding", lineno, column)
        if name in seen:
            raise ParseError(f"duplicate name {name!r} in context", lineno, column)
        seen.add(name)
        entry = parsed.get(entry_part)
        if entry is None:
            try:
                entry = parsed[entry_part] = parse_entry(entry_part)
            except ParseError as err:
                column = raw.index(":") + 1 + err.column  # the entry starts after the colon
                raise ParseError(f"in binding for {name!r}: {err.message}", lineno, column)
        entries.append((name, entry))
    return Context(entries)
