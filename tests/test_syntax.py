import copy
import hashlib
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpi import (
    ChanType,
    Input,
    New,
    Output,
    Par,
    ParseError,
    Qual,
    Qualified,
    Rec,
    Recv,
    VOID,
    Repl,
    Send,
    TypeVar,
    UN_END,
    Zero,
    barendregt_rename,
    free_vars,
    parse_context,
    parse_entry,
    parse_process,
    parse_type,
    pretty,
    substitute,
    type_check,
)
from sessionpi.contexts import entry_of_type
from sessionpi.gen import (
    gen_endpoint,
    gen_process,
    gen_safe_context,
    gen_type,
    poll_client_text,
    poll_context_text,
    poll_service_text,
)
from sessionpi.parser import _Parser
from sessionpi.syntax import CaptureError, _Node, _replace, _scan, render
from sessionpi.semantics import congruence_steps
from tests.conftest import FIXTURES, fixture_names, load_fixture
from tests.helpers import (
    count_fills,
    reference_equal,
    reference_rename,
    reference_str,
    reference_substitute,
    reference_tokenize,
    reference_type_str,
    reference_validate,
    subprocesses,
)


def test_parse_zero():
    assert parse_process("0") == Zero()


def test_parse_par_of_prefixes():
    p = parse_process("x!y.0 | x?(z).0")
    assert p == Par(Output("x", "y", Zero()), Input("x", "z", Zero()))


def test_parse_restriction_with_channel_annotation():
    p = parse_process("new p: <lin ?(un end).un end, lin !(un end).un end>. 0")
    lin_in = Qualified(Qual.LIN, Recv(UN_END, UN_END))
    assert isinstance(p, New)
    assert p.binder == "p"
    assert isinstance(p.annot, ChanType)
    assert p.annot.left == lin_in
    assert p.cont == Zero()


def test_parse_positions_recorded():
    p = parse_process("0 |\n x!y.0")
    assert isinstance(p, Par)
    assert p.right.pos == (2, 2)


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_process("x!y.0 |\n| 0")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        (parse_process, "x!y.0 |\n| 0", 2, 1),
        (parse_process, "x!y.0 |\n  x?(z).$", 2, 9),
        (parse_type, "lin ?(un end).", 1, 15),
        (parse_context, "x : un end\ny : lin !(un end).", 2, 19),
        (parse_process, "new x: un end.\n\n   x!x.(0 | )", 3, 13),
        (parse_type, "rec a. un ?(un end).b", 1, 21),
        (parse_process, "x!x.0 |\nnew y: rec a. a. 0", 2, 8),
        (parse_context, "x : un end\ny : rec a. b", 2, 12),
        (parse_context, "  x : lin foo", 1, 11),
        # Only \n ends a line; other line-breaking characters are stray.
        (parse_context, "x : un end\u2028y : un end", 1, 11),
        (parse_context, "x : un\x0cend", 1, 7),
        (parse_context, "x : un end\ny : lin\x85?(un end).un end", 2, 8),
        (parse_context, "x : <un end,\x0bun end>", 1, 13),
        (parse_process, "0 |\u2029 0", 1, 4),
        # A context line is trimmed of the tokenizer's blanks alone.
        (parse_context, "x : un end\xa0", 1, 11),
        (parse_context, "x : un end\x0c", 1, 11),
        (parse_context, "\u3000x : un end", 1, 1),
        # A keyword cannot name a binding: no process could use the name.
        (parse_context, "new : un end", 1, 1),
        (parse_context, "x : un end\n  void : lin !(un end).un end", 2, 3),
        # A name bound twice: the error points at the second binding's name.
        (parse_context, "  x : un end\n  x : un end", 2, 3),
    ],
)
def test_parse_error_positions_are_pinned(parse, text, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("text", ["x : un end\xa0", "x : un end\x0c", "\u3000x : un end", "x :\xa0un end"])
def test_context_lines_keep_whitespace_that_starts_no_token(text):
    with pytest.raises(ParseError, match="unexpected character"):
        parse_context(text)


@pytest.mark.parametrize("keyword", ["new", "lin", "un", "rec", "end", "void"])
def test_keywords_cannot_name_bindings(keyword):
    with pytest.raises(ParseError, match=f"keyword '{keyword}' cannot name a binding") as err:
        parse_context(f"x : un end\n {keyword}\t: un end")
    assert (err.value.line, err.value.column) == (2, 2)


@pytest.mark.parametrize("parse", [parse_process, parse_context])
def test_long_blank_runs_scan_in_linear_time(parse):
    """A run of blanks is read once, at the end of the input and before a
    character that starts no token alike."""
    text = "x : un end" if parse is parse_context else "0"
    for blanks in (" " * 200_000, "\t\r " * 70_000):
        start = time.perf_counter()
        parse(text + blanks)
        with pytest.raises(ParseError, match="unexpected character '\\$'") as err:
            parse(text + blanks + "$")
        assert time.perf_counter() - start < 1.0
        assert (err.value.line, err.value.column) == (1, len(text + blanks) + 1)


def test_parse_type_base():
    assert parse_type("un end") == UN_END


def test_parse_type_recursive():
    t = parse_type("rec a. un ?(un end).a")
    assert t == Rec("a", Qualified(Qual.UN, Recv(UN_END, TypeVar("a"))))


def test_parse_type_rejects_non_contractive():
    with pytest.raises(ParseError, match="non-contractive"):
        parse_type("rec a. a")
    with pytest.raises(ParseError, match="non-contractive"):
        parse_type("rec a. rec b. a")


def test_parse_type_rejects_free_variable():
    with pytest.raises(ParseError, match="unbound"):
        parse_type("rec a. un ?(un end).b")


def test_parse_process_checks_annotations():
    with pytest.raises(ParseError, match="non-contractive"):
        parse_process("new x: rec a. a. 0")


def test_parse_reports_the_first_fault_in_source_order():
    with pytest.raises(ParseError, match=r"rec b\.") as err:
        parse_type("rec a. rec b. b")
    assert (err.value.line, err.value.column) == (1, 8)
    with pytest.raises(ParseError, match="unbound type variable 'c'"):
        parse_type("rec a. un ?(c).a | (")


# Tokens the agreement test inserts or substitutes, and the three places a
# type is read: alone, as the first item of an entry, as an annotation.
_MUTATION_TOKENS = "rec a b . lin un end ( ) < > ,".split()
_TYPE_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\S")
_WRAPS = [(parse_type, "{}"), (parse_entry, "<{}, void>"), (parse_process, "new x: {}. x!x.0 | 0")]
# Scope faults that random mutation finds only rarely.
_HAND_TYPES = [
    "<rec a. un ?(un end).a, a>",
    "<rec a. un ?(un end).a, rec b. lin !(a).b>",
    "un !(rec a. un ?(un end).a).a",
    "rec a. rec b. a",
    "rec a. rec b. b",
    "rec a. rec a. a",
    "rec a. un ?(a).a",
    "rec a. un ?(rec a. a).a",
    "rec a. un !(rec b. un ?(b).a).b",
    "rec a. lin ?(un end).rec b. a",
]


def _mutate(rng, text):
    """``text`` with one token-level edit: replace or delete a token, or
    insert one of ``_MUTATION_TOKENS``."""
    tokens = _TYPE_TOKEN.findall(text)
    i = rng.randrange(len(tokens) + 1)
    edit = rng.choice(("replace", "delete", "insert"))
    if edit == "insert" or i == len(tokens):
        tokens.insert(i, rng.choice(_MUTATION_TOKENS))
    elif edit == "replace":
        tokens[i] = rng.choice(_MUTATION_TOKENS)
    else:
        del tokens[i]
    return " ".join(tokens)


def _parse_or_none(parse, text):
    try:
        return parse(text)
    except ParseError:
        return None


def test_parser_checks_agree_with_the_reference_walk(monkeypatch):
    """Accept/reject and values of the parser match an unchecked parse
    followed by ``reference_validate``, on generated types, generated
    endpoints under one or two ``rec`` binders, and their mutants."""
    rng = random.Random(2011)
    texts = list(_HAND_TYPES)
    for _ in range(800):
        binders = "".join(f"rec {rng.choice('ab')}. " for _ in range(rng.randint(1, 2)))
        body = gen_endpoint(rng, rng.randint(0, 3), rec_var=rng.choice("ab"))
        for base in (str(gen_type(rng, depth=rng.randint(1, 3))), binders + str(body)):
            texts.append(base)
            texts.extend(_mutate(rng, base) for _ in range(3))
    cases = [(parse, wrap.format(text)) for text in texts for parse, wrap in _WRAPS]

    # With its two scope checks made no-ops, the parser reads every
    # syntactically valid type, as it did before it checked them.
    def unchecked_fail(self, message, tok=None):
        if not message.startswith(("unbound type variable", "non-contractive")):
            fail(self, message, tok)

    fail = _Parser.fail
    with monkeypatch.context() as patch:
        patch.setattr(_Parser, "fail", unchecked_fail)
        unchecked = [_parse_or_none(parse, text) for parse, text in cases]
    faults = {"unbound": 0, "non-contractive": 0}
    for (parse, text), value in zip(cases, unchecked):
        if value is not None:
            try:
                reference_validate(value)
            except ValueError as err:
                value = None
                faults[str(err).split()[0]] += 1
        assert _parse_or_none(parse, text) == value, text
    accepted = sum(value is not None for value in unchecked) - sum(faults.values())
    assert len(cases) == 19_230
    assert accepted > 4_000 and min(faults.values()) > 100, (accepted, faults)


# Edits the tokenizer agreement test makes: every token class, blanks,
# comments, line ends, and characters that no token starts with, among them
# line-breaking characters other than \n, which end no line.
_SCAN_EDITS = list(" \t\r\n#!?().|:,<>0◦a_'9$\x0b\x0c\x1c\x85\u2028") + [
    "rec", "lin", "un", "end", "new", "void", "x1", " # note\n", "\r\n",
]


def _mutate_chars(rng, text):
    """``text`` with one to three character-level edits."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.random()
        if edit < 0.4 or i == len(chars):
            chars.insert(i, rng.choice(_SCAN_EDITS))
        elif edit < 0.7:
            chars[i] = rng.choice(_SCAN_EDITS)
        else:
            del chars[i]
    return "".join(chars)


def _outcome(read, *args):
    try:
        return read(*args)
    except ParseError as err:
        return ("error", err.message, err.line, err.column)


def _scanned(text):
    scan = _Parser(text, "type")
    return [(kind, t, *scan.pos(i)) for i, (kind, t) in enumerate(zip(scan.kinds, scan.texts))]


def _source_order_positions(p):
    """``pos`` of every node of ``p`` in source order: a parallel's ``|``
    comes between its two sides."""
    if isinstance(p, Par):
        return _source_order_positions(p.left) + [p.pos] + _source_order_positions(p.right)
    if isinstance(p, Zero):
        return [p.pos]
    return [p.pos] + _source_order_positions(p.body if isinstance(p, Repl) else p.cont)


def _node_token_positions(tokens):
    """Positions of the tokens that start process nodes: ``0``, ``|``,
    ``new``, a replication's ``!`` and a prefix's channel."""
    kinds = [kind for kind, *_ in tokens]
    return [
        (line, column)
        for i, (kind, _, line, column) in enumerate(tokens)
        if kind in ("0", "|", "new")
        or kind == "!" and (i == 0 or kinds[i - 1] not in ("ident", "lin", "un"))
        or kind == "ident" and kinds[i + 1] in ("!", "?")
    ]


def _assert_at_reference_token(err, parse, text):
    """``err`` is the reference tokenizer's own error, or sits at a
    reference token, the one it says it found if it names one."""
    line, message = err.line, err.message
    if parse is parse_context:
        if message.startswith("expected 'name : type' binding"):
            assert err.column == 1, text
            return
        raw = text.split("\n")[line - 1]
        if message.startswith(("keyword ", "duplicate name ")):
            # A keyword or a name bound twice: the reference reads the name there.
            kind, name, _, column = reference_tokenize(raw.split("#", 1)[0].partition(":")[0])[0]
            if message.startswith("keyword "):
                assert (message, kind) == (f"keyword {name!r} cannot name a binding", name), text
            else:
                assert message == f"duplicate name {name!r} in context", text
            assert err.column == column, text
            return
        if not message.startswith("in binding for "):
            # A character that starts no token, before the binding's colon.
            with pytest.raises(ParseError) as ref:
                reference_tokenize(raw.split("#", 1)[0].partition(":")[0])
            assert (message, err.column) == (ref.value.message, ref.value.column), text
            return
        # Read the binding's entry alone, at its place on its line.
        colon = raw.index(":") + 1
        text = " " * colon + raw.split("#", 1)[0].rstrip(" \t\r")[colon:]
        line, message = 1, message.split(": ", 1)[1]
    try:
        tokens = reference_tokenize(text)
    except ParseError as ref:
        assert (message, line, err.column) == (ref.message, ref.line, ref.column), text
        return
    found = {(tok_line, tok_column): t for _, t, tok_line, tok_column in tokens}
    assert (line, err.column) in found, (text, err)
    if "found " in message:
        named = found[line, err.column] or "end of input"
        assert message.endswith(f"found {named!r}"), (text, err)


def test_scan_agrees_with_the_reference_tokenizer():
    """On mutants of the fixtures, generated processes and types, and poll
    contexts: the one-scan tokenizer gives the reference's kinds, texts,
    lines and columns; every parsed node's ``pos`` is where the reference
    puts the token that starts it; and every ParseError is the reference's
    own or sits at a reference token.  ``==`` on nodes ignores ``pos``, so
    positions are compared on their own."""
    rng = random.Random(12)
    bases = []
    for name in fixture_names():
        bases.append((parse_process, (FIXTURES / name / "process.pi").read_text()))
        bases.append((parse_context, (FIXTURES / name / "context.ctx").read_text()))
    for n in range(1, 4):
        bases += [(parse_process, poll_client_text(n)), (parse_context, poll_context_text(n))]
    bases.append((parse_process, poll_service_text()))
    for _ in range(300):
        bases.append((parse_process, str(gen_process(rng, ["x", "y"], size=rng.randint(1, 8)))))
        text = str(gen_type(rng, depth=rng.randint(1, 2)))
        bases += [(parse_type, text), (parse_entry, f"<◦, {text}>")]
    cases = bases + [(parse, _mutate_chars(rng, text)) for parse, text in rng.choices(bases, k=10_000)]
    parsed = errors = 0
    for parse, text in cases:
        ref = _outcome(reference_tokenize, text)
        assert _outcome(_scanned, text) == ref, text
        try:
            value = parse(text)
        except ParseError as err:
            errors += 1
            _assert_at_reference_token(err, parse, text)
        else:
            parsed += 1
            if parse is parse_process:
                assert _source_order_positions(value) == _node_token_positions(ref), text
    assert parsed > 1_000 and errors > 5_000, (parsed, errors)


_FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Text made of the grammar's own characters, which reaches past the tokenizer.
_GRAMMAR_TEXT = st.lists(
    st.sampled_from(list(" \n#!?().|:,<>0◦xyz") + ["rec", "lin", "un", "end", "new"])
).map("".join)


@pytest.mark.parametrize("parse", [parse_process, parse_type, parse_entry, parse_context])
@_FUZZ
@given(text=st.text() | _GRAMMAR_TEXT)
def test_parsers_raise_nothing_but_parse_errors(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


def test_parse_context_single_binding():
    ctx = parse_context("x : un end")
    assert ctx.names() == {"x"}
    assert ctx.get("x").item == UN_END


def test_parse_context_empty():
    assert len(parse_context("")) == 0
    assert len(parse_context("# just a comment\n\n")) == 0


def test_parse_context_duplicate_name():
    with pytest.raises(ParseError, match="duplicate"):
        parse_context("x : un end\nx : un end")


def test_parse_context_parses_each_distinct_entry_text_once(monkeypatch):
    built = []
    init = _Parser.__init__

    def counting(self, src, what):
        built.append(src)
        init(self, src, what)

    monkeypatch.setattr(_Parser, "__init__", counting)
    text = poll_context_text(300)
    g = parse_context(text)
    distinct = {line.partition(":")[2] for line in text.split("\n")}
    assert len(distinct) == 4 and len(g) == 304
    assert sorted(built) == sorted(distinct)
    assert len({id(g.get(f"z{i}")) for i in range(1, 301)}) == 1


def test_parse_context_error_after_repeated_lines_names_its_own_line():
    good = "".join(f"x{i} : lin !(un end).un end\n" for i in range(100))
    with pytest.raises(ParseError, match="found 'nd'") as err:
        parse_context(good + "y : lin !(un end).un nd\n" + good.replace("x", "w"))
    assert (err.value.line, err.value.column) == (101, 22)


def test_parse_context_blanks_after_the_colon_give_one_entry():
    g = parse_context("x : lin !(un end).un end\ny :lin !(un end).un end\nz :\t  lin !(un end).un end")
    assert g.get("x") is g.get("y") is g.get("z")


def test_pretty_zero():
    assert pretty(Zero()) == "0"


def test_pretty_round_trip_poll_processes():
    for text in (poll_service_text(), poll_client_text(3)):
        p = parse_process(text)
        assert parse_process(pretty(p)) == p


def test_pretty_round_trip_random_processes():
    rng = random.Random(7)
    for _ in range(100):
        ctx = gen_safe_context(rng, ["x", "y", "z"])
        p = gen_process(rng, list(ctx.names()), size=8)
        assert parse_process(pretty(p)) == p


def test_pretty_round_trip_random_types():
    from sessionpi.gen import gen_type

    rng = random.Random(8)
    for _ in range(100):
        t = gen_type(rng)
        assert parse_type(pretty(t)) == t


@pytest.mark.parametrize(
    "text",
    [
        "0 | (0 | 0)",
        "0 | 0 | 0",
        "x!y.(0 | 0) | !(0 | 0)",
        "!!x?(y).0",
        "new p: <lin ?(un end).un end, lin !(un end).un end>. (p?(z).0 | p!v.0)",
    ],
)
def test_printer_parenthesises_as_the_grammar_needs(text):
    p = parse_process(text)
    assert str(p) == reference_str(p) == text


def test_printer_agrees_with_the_recursive_reference(fixture_dir):
    terms = [parse_process((d / "process.pi").read_text()) for d in sorted(fixture_dir.iterdir())]
    terms += [parse_process(poll_service_text()), parse_process(poll_client_text(3))]
    rng = random.Random(43)
    for _ in range(1000):
        terms.append(gen_process(rng, ["x", "y", "z"], size=rng.randint(1, 12)))
    for p in terms:
        text = reference_str(p)
        assert str(p) == text
        for limit in (1, 30, 61, len(text)):
            assert render(p, limit) == text[:limit]


def _printed(show, p) -> str:
    """``show(p)``; a ``RecursionError`` fails the test with a short report.
    The failure is raised outside the handler, since reporting the error
    itself would compare the locals of its thousand frames, each holding a
    deep term."""
    try:
        return show(p)
    except RecursionError:
        pass
    pytest.fail(f"{show.__name__} recursed", pytrace=False)


def test_printer_needs_no_recursion():
    # Built directly: the parser refuses input this deep.
    chain, left, right = Zero(), Zero(), Zero()
    for _ in range(10_000):
        chain = Output("x", "v", chain)
        left = Par(left, Output("x", "v", Zero()))
        right = Par(Zero(), right)
    assert str(chain) == "x!v." * 10_000 + "0"
    assert render(chain, limit=61) == ("x!v." * 16)[:61]
    assert str(left) == "0" + " | x!v.0" * 10_000
    assert str(right) == "0 | (" * 9_999 + "0 | 0" + ")" * 9_999
    assert _printed(repr, chain) == (
        "Output(chan='x', arg='v', cont=" * 10_000 + "Zero()" + ")" * 10_000
    )
    assert _printed(repr, left) == (
        "Par(left=" * 10_000 + "Zero()"
        + ", right=Output(chan='x', arg='v', cont=Zero()))" * 10_000
    )


def test_repr_of_a_process_is_the_dataclass_text():
    end = "Qualified(qual=<Qual.UN: 'un'>, pre=End())"
    assert repr(parse_process("x?(y).!0")) == "Input(chan='x', binder='y', cont=Repl(body=Zero()))"
    assert repr(Par(Zero(), Output("x", "v", Zero()), pos=(3, 7))) == (
        "Par(left=Zero(), right=Output(chan='x', arg='v', cont=Zero()))"
    )
    assert repr(parse_process("new p: <un end, lin !(un end).un end>. p!v.0")) == (
        f"New(binder='p', annot=ChanType(left={end}, right=Qualified(qual=<Qual.LIN: 'lin'>, "
        f"pre=Send(payload={end}, cont={end}))), cont=Output(chan='p', arg='v', cont=Zero()))"
    )


def test_type_printer_agrees_with_the_recursive_reference():
    rng = random.Random(53)
    for _ in range(2000):
        t = gen_type(rng, depth=rng.randint(1, 4))
        entry = entry_of_type(t)
        voided = type(entry)(*(VOID if rng.random() < 0.3 else m for m in entry.slots))
        for value, parse in ((t, parse_type), (entry, parse_entry), (voided, parse_entry)):
            text = reference_type_str(value)
            assert str(value) == pretty(value) == text
            assert parse(text) is value


def test_type_printer_needs_no_recursion():
    # Built directly: the parser refuses input this deep.
    nested = UN_END
    for _ in range(10_000):
        nested = Qualified(Qual.LIN, Send(nested, UN_END))
    assert str(nested) == "lin !(" * 10_000 + "un end" + ").un end" * 10_000
    assert str(ChanType(VOID, nested)) == f"<◦, {nested}>"


def test_free_vars():
    assert free_vars(Zero()) == frozenset()
    assert free_vars(parse_process("x!y.0")) == {"x", "y"}
    assert free_vars(parse_process("new x: un end. x!y.0")) == {"y"}
    assert free_vars(parse_process("x?(y).y!z.0")) == {"x", "z"}


def test_substitute_free_occurrences():
    p = parse_process("x!y.0")
    assert substitute(p, "z", "y") == parse_process("x!z.0")


def test_substitute_respects_binders():
    p = parse_process("x?(y).y!w.0")
    assert substitute(p, "z", "y") == p


def test_substitute_com_instance():
    # The input side of a communication: y(w).0 with z replacing y.
    q = parse_process("y?(w).0")
    assert substitute(q, "z", "y") == parse_process("z?(w).0")


def test_substitute_channel_and_argument():
    p = parse_process("x!x.0")
    assert substitute(p, "z", "x") == parse_process("z!z.0")


def test_barendregt_forces_distinct_binders():
    p = parse_process("x?(y).0 | x?(y).0")
    renamed = barendregt_rename(p)
    assert renamed == parse_process("x?(y).0 | x?(y1).0")


def test_barendregt_no_binders_unchanged():
    p = parse_process("x!y.0 | y!x.0")
    assert barendregt_rename(p) == p


def test_barendregt_avoids_given_names():
    p = parse_process("x?(y).0")
    renamed = barendregt_rename(p, avoid={"y"})
    assert renamed == parse_process("x?(y1).0")


def test_barendregt_clash_free_term_is_returned_itself():
    p = parse_process("x?(y).y!z.0 | new w: un end. (w!x.0 | x?(v).0)")
    assert barendregt_rename(p) is p
    assert barendregt_rename(p, avoid={"a", "x"}) is p


@pytest.mark.parametrize(
    "text, avoid, renamed",
    [
        # A binder bound twice, in two threads and on one path.
        ("x?(y).0 | new y: un end. y!x.0", set(), "x?(y).0 | new y1: un end. y1!x.0"),
        ("x?(y).x?(y).y!y.0", set(), "x?(y).x?(y1).y1!y1.0"),
        # A binder in ``avoid``.
        ("new y: un end. x!y.0", {"y", "y1"}, "new y2: un end. x!y2.0"),
        # A binder equal to a free name of another thread.
        ("x?(y).y!x.0 | y!x.0", set(), "x?(y1).y1!x.0 | y!x.0"),
    ],
)
def test_barendregt_clash_shapes_renamed_as_before(text, avoid, renamed):
    p = parse_process(text)
    assert barendregt_rename(p, avoid=avoid) is not p
    assert barendregt_rename(p, avoid=avoid) == reference_rename(p, avoid) == parse_process(renamed)


def test_barendregt_agrees_with_reference_on_random_terms():
    # Generated terms have distinct binders; a term next to itself repeats
    # every binder it has.
    rng = random.Random(17)
    kept = renamed_count = 0
    for i in range(1000):
        names = ["x", "y", "z"][: 1 + i % 3]
        ctx = gen_safe_context(rng, names)
        p = gen_process(rng, names, size=4 + i % 9)
        for term in (p, Par(p, p)):
            for avoid in (frozenset(), ctx.names(), _scan(term).binders):
                renamed = barendregt_rename(term, avoid=avoid)
                expected = reference_rename(term, avoid)
                assert renamed == expected and str(renamed) == str(expected)
                if renamed is term:
                    kept += 1
                else:
                    renamed_count += 1
    # Both the clash-free path and the renaming path are exercised.
    assert kept > 1000 and renamed_count > 1000


def test_substitute_agrees_with_reference_on_random_terms():
    # Every (replacement, target) pair over a term's names, on the term
    # alone, next to itself (binders clash) and renamed apart (as reduction
    # substitutes into it).
    rng = random.Random(23)
    rewritten = captured = 0
    for i in range(150):
        p = gen_process(rng, ["x", "y", "z"][: 1 + i % 3], size=4 + i % 9)
        for term in (p, Par(p, p), barendregt_rename(Par(p, p))):
            names = sorted(_scan(term).names)
            for replacement in names:
                for target in names:
                    try:
                        expected = reference_substitute(term, replacement, target)
                    except CaptureError as err:
                        with pytest.raises(CaptureError) as got:
                            substitute(term, replacement, target)
                        assert str(got.value) == str(err)
                        captured += 1
                        continue
                    result = substitute(term, replacement, target)
                    assert result == expected
                    rewritten += result != term
    # Both rewriting and capture are exercised.
    assert rewritten > 2000 and captured > 1000


def _prefix_chain(node):
    """The prefixes of a chain of one-child nodes, outermost first, read
    without recursion (``==`` and ``hash`` on processes still recurse)."""
    out = []
    while not isinstance(node, Zero):
        out.append(node)
        node = node.cont
    return out


def test_barendregt_renames_a_deep_chain_of_one_binder():
    # Built directly: the parser refuses input this deep.
    p = Zero()
    for _ in range(10_000):
        p = Input("x", "y", Output("y", "v", p))
    chain = _prefix_chain(barendregt_rename(p))
    assert len(chain) == 20_000
    for i in range(10_000):
        binder = f"y{i}" if i else "y"
        inp, out = chain[2 * i], chain[2 * i + 1]
        assert (inp.chan, inp.binder) == ("x", binder)
        assert (out.chan, out.arg) == (binder, "v")


def test_substitute_rewrites_a_deep_chain():
    # The last receive rebinds the target, so only the tail keeps it.
    p = Input("x", "x", Output("x", "x", Zero()))
    for i in range(10_000):
        p = Input("x", f"y{i}", Output(f"y{i}", "x", p))
    chain = _prefix_chain(substitute(p, "z", "x"))
    assert len(chain) == 20_002
    for i in range(10_000):
        inp, out = chain[2 * i], chain[2 * i + 1]
        binder = f"y{9_999 - i}"
        assert (inp.chan, inp.binder) == ("z", binder)
        assert (out.chan, out.arg) == (binder, "z")
    inp, out = chain[-2:]
    assert (inp.chan, inp.binder, out.chan, out.arg) == ("z", "x", "x", "x")


def test_scan_handles_a_deep_clash_free_chain():
    # Built directly: the parser refuses input this deep.
    p = Zero()
    for i in range(10_000):
        p = Input("x", f"y{i}", Output(f"y{i}", "v", p))
    assert barendregt_rename(p) is p
    assert barendregt_rename(p, avoid={"x", "v"}) is p
    assert free_vars(p) == {"x", "v"}
    assert _scan(p).names == {"x", "v"} | {f"y{i}" for i in range(10_000)}


def test_barendregt_invariants_and_idempotence():
    rng = random.Random(11)
    for _ in range(100):
        p = gen_process(rng, ["x", "y"], size=9)
        renamed = barendregt_rename(p)
        binders = _binders(renamed)
        assert len(binders) == len(set(binders))
        assert not set(binders) & free_vars(p)
        assert free_vars(renamed) == free_vars(p)
        assert barendregt_rename(renamed) == renamed


def _binders(p):
    out = []
    match p:
        case Par(left, right):
            out += _binders(left) + _binders(right)
        case Input(_, binder, cont):
            out += [binder] + _binders(cont)
        case New(binder, _, cont):
            out += [binder] + _binders(cont)
        case Output(_, _, cont):
            out += _binders(cont)
        case _:
            pass
    if hasattr(p, "body"):
        out += _binders(p.body)
    return out


def test_substitute_free_variable_law():
    rng = random.Random(13)
    for _ in range(50):
        p = barendregt_rename(gen_process(rng, ["x", "y"], size=8))
        if "x" not in free_vars(p) or "z" in _scan(p).names:
            continue
        q = substitute(p, "z", "x")
        assert free_vars(q) == (free_vars(p) - {"x"}) | {"z"}


def _chain_limit():
    """The most ``x!v.`` prefixes before ``0`` that parse from here, and how
    a chain of 5,000 fails from the same stack depth."""
    too_deep = _outcome(parse_process, "x!v." * 5000 + "0")
    deepest, over = 1, 5000  # the longest chain that parses, one that does not
    while over - deepest > 1:
        mid = (deepest + over) // 2
        if isinstance(_outcome(parse_process, "x!v." * mid + "0"), tuple):
            over = mid
        else:
            deepest = mid
    return deepest, too_deep


def test_parse_too_deep_is_parse_error():
    # The parser gives up at the '!' of the fourth prefix past the deepest
    # chain that parses; both move with the caller's own stack depth.
    deepest, too_deep = _chain_limit()
    assert too_deep == ("error", "input too deep to parse", 1, 4 * (deepest + 3) + 2)
    nested = "lin !(" * 5000 + "un end" + ").un end" * 5000
    with pytest.raises(ParseError, match="input too deep to parse"):
        parse_type(nested)
    with pytest.raises(ParseError, match="input too deep to parse"):
        parse_entry("<" + nested + ", un end>")


def test_chains_cut_short_near_the_depth_limit_are_parse_errors():
    """Just past the limit the parser can give up right after it has read
    the end of the input; that is still a ParseError."""
    deepest, _ = _chain_limit()
    for n in range(deepest - 10, deepest + 10):
        with pytest.raises(ParseError):
            parse_process("x!v." * n)


# ---------------------------------------------------------------------------
# Process facts: hash, equality and free names, filled in on first use
# ---------------------------------------------------------------------------

def test_cached_free_names_agree_with_the_scan():
    # Preorder fills the whole term at its root; postorder fills each
    # subterm on its own, children first.
    rng = random.Random(61)
    for k in range(300):
        p = gen_process(rng, ["x", "y", "z"], size=rng.randint(1, 12))
        subterms = list(subprocesses(p))
        for sub in subterms if k % 2 else reversed(subterms):
            assert free_vars(sub) == _scan(sub).free


def test_a_reparsed_term_is_equal_with_the_same_hash():
    rng = random.Random(62)
    for _ in range(200):
        p = gen_process(rng, ["x", "y"], size=rng.randint(1, 10))
        q = parse_process(str(p))
        assert q is not p and q == p and hash(q) == hash(p)
    # Positions take no part in either.
    p, q = parse_process("x!y.0 | y?(z).0"), parse_process("  x!y.0   |\n y?(z).0")
    assert p.right.pos != q.right.pos
    assert p == q and hash(p) == hash(q)


def test_equality_agrees_with_the_recursive_reference():
    rng = random.Random(63)
    equal = unequal = 0
    for _ in range(300):
        p = gen_process(rng, ["x", "y"], size=rng.randint(1, 8))
        others = [gen_process(rng, ["x", "y"], size=rng.randint(1, 4)), parse_process(str(p))]
        others += [step.result for step in congruence_steps(p)]
        for q in others:
            want = reference_equal(p, q)
            assert (p == q) is want and (q == p) is want and (p != q) is not want
            equal += want
            unequal += not want
        # With both hashes filled, unequal hashes reject at once.
        for q in others:
            hash(q)
        hash(p)
        assert [p == q for q in others] == [reference_equal(p, q) for q in others]
    assert equal > 300 and unequal > 1_000


def test_deep_terms_hash_compare_and_give_free_names():
    def chain(last):
        p = Output("c", last, Zero())
        for _ in range(10_000):
            p = Output("c", "v", p)
        return p

    def wide(last):
        p = Output("c", last, Zero())
        for _ in range(10_000):
            p = Par(p, Output("c", "v", Zero()))
        return p

    for build in (chain, wide):
        p, q, r = build("w"), build("w"), build("u")
        assert p == q and hash(p) == hash(q)
        assert p != r and r != p
        assert free_vars(p) == {"c", "v", "w"}
        assert hash(r) != hash(p) and p != r  # rejected by the hashes


def test_substitute_fills_each_node_of_a_rebinding_chain_once(monkeypatch):
    # Each receive rebinds the replacement name, so each one asks whether
    # the target is free below it: the first question fills the chain, the
    # rest read it.
    p = Zero()
    for _ in range(20_000):
        p = Input("c", "z", Output("z", "v", p))
    fills = count_fills(monkeypatch)
    q = substitute(p, "z", "x")
    assert q == p and q is not p
    assert max(fills.values()) == 1 and sum(fills.values()) == 40_000


def test_renaming_and_checking_fill_no_node(monkeypatch):
    ctx = parse_context(poll_context_text(40))
    p = parse_process(f"{poll_service_text()} | {poll_client_text(40)}")
    clash = parse_process("x?(y).y!v.0 | x?(y).0")
    fills = count_fills(monkeypatch)
    assert type_check(ctx, p, trace=True).accepted
    assert barendregt_rename(clash) != clash
    assert not fills


def test_copies_refill_their_own_facts():
    p = parse_process("new x: un end. x!y.0 | y?(z).0")
    assert free_vars(p) == {"y"}
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert q._hash is None and q._free is None
        assert q == p and hash(q) == hash(p)


def _positions(p) -> list:
    """The ``pos`` of each node of ``p``, in preorder."""
    out, stack = [], [p]
    while stack:
        q = stack.pop()
        out.append(q.pos)
        children = (getattr(q, name) for name in type(q).__match_args__)
        stack += reversed([c for c in children if isinstance(c, _Node)])
    return out


def test_copies_and_rebuilt_nodes_keep_their_positions():
    p = parse_process("new x: un end. x!y.0 |\n  !y?(z).0")
    where = _positions(p)
    assert len(set(where)) == len(where) and None not in where
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert _positions(q) == where
    assert _positions(_replace(p, right=Zero())) == [p.pos, *_positions(p.left), None]


def test_process_nodes_are_slotted_and_guarded():
    p = parse_process("new x: un end. (x!y.0 | !y?(z).0)")
    nodes = [p, p.cont, p.cont.left, p.cont.left.cont, p.cont.right, p.cont.right.body]
    assert {type(q) for q in nodes} == {Zero, Par, Repl, Output, Input, New}
    for q in nodes:
        assert not hasattr(q, "__dict__")
        for name in (*type(q).__match_args__, "pos", "_hash", "extra"):
            # What ``q.name = ...`` and ``del q.name`` do.
            with pytest.raises(AttributeError):
                setattr(q, name, None)
            with pytest.raises(AttributeError):
                delattr(q, name)
        with pytest.raises(AttributeError):
            q.pos = (1, 1)
        with pytest.raises(AttributeError):
            del q._hash
        assert q.pos is not None and q._hash is None


def test_repr_of_the_fixtures_is_unchanged():
    text = "\n".join(repr(load_fixture(name)[1]) for name in fixture_names())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "ecf483148e0e8f01"
