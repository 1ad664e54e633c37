"""Shared test machinery: independent oracles and subject-reduction retyping."""

from __future__ import annotations

import collections
import re
from typing import Iterator, Optional

from sessionpi import ChanType, Input, New, Output, Par, ParseError, Repl, Type, Zero, declarative, parse_type, syntax, type_check
from sessionpi.contexts import (
    VOID,
    Context,
    ContextAlgebraError,
    DeclContext,
    Single,
    Void,
    _close_item,
    _used_item,
    is_safe_type,
    is_un_decl_context,
    is_un_type,
)
from sessionpi.checker import AuditRecord, TraceStep, _Checker, _consumed, _slots
from sessionpi.declarative import OracleResult, Verdict, _bind, _shapes, derivable_value
from sessionpi.equality import is_un_end, type_equal, unfold
from sessionpi.gen import (
    closed_session,
    delegation,
    lin_pingpong,
    poll_client_text,
    poll_context_text,
    poll_service_text,
    poll_system,
    un_server,
)
from sessionpi.semantics import (
    RewriteStep,
    _coms,
    _fire,
    _local_steps,
    _soup,
    advance_type,
    get_at,
    replace_at,
)
from sessionpi.syntax import CaptureError, End, Process, Qual, Qualified, Rec, Recv, Send, TypeVar, free_vars

# ---------------------------------------------------------------------------
# Process walks: subterms, structural equality, and counting node fills
# ---------------------------------------------------------------------------

def subprocesses(p: Process) -> Iterator[Process]:
    """Preorder traversal of a process tree."""
    yield p
    match p:
        case Par(left, right):
            yield from subprocesses(left)
            yield from subprocesses(right)
        case Repl(body) | Output(_, _, body) | Input(_, _, body) | New(_, _, body):
            yield from subprocesses(body)


def reference_equal(p: Process, q: Process) -> bool:
    """Structural equality, one recursive call per node, ignoring ``pos``:
    the reference that the explicit-stack ``==`` of process nodes must match."""
    if type(p) is not type(q):
        return False
    match p:
        case Zero():
            return True
        case Par(left, right):
            return reference_equal(left, q.left) and reference_equal(right, q.right)
        case Repl(body):
            return reference_equal(body, q.body)
        case Output(chan, arg, cont):
            return (chan, arg) == (q.chan, q.arg) and reference_equal(cont, q.cont)
        case Input(chan, binder, cont):
            return (chan, binder) == (q.chan, q.binder) and reference_equal(cont, q.cont)
        case New(binder, annot, cont):
            return binder == q.binder and annot is q.annot and reference_equal(cont, q.cont)


def count_fills(monkeypatch) -> collections.Counter:
    """Count, by node id, the hashes that process nodes are given from now
    on.  A data descriptor on ``_Node`` takes the place of its ``_hash``
    slot and delegates to it; it sees each store of the fill, which stores
    through ``object.__setattr__``, and counts those that set a hash, not
    the ``None`` of a constructor.  The counted nodes must be kept alive for
    their ids to stay theirs."""
    fills: collections.Counter = collections.Counter()
    slot = syntax._Node.__dict__["_hash"]

    class Counted:
        def __get__(self, node, cls):
            return None if node is None else slot.__get__(node, cls)

        def __set__(self, node, value):
            if value is not None:
                fills[id(node)] += 1
            slot.__set__(node, value)

    monkeypatch.setattr(syntax._Node, "_hash", Counted())
    return fills


def invert(step: RewriteStep, source: Process) -> Optional[Process]:
    """Apply ``step.rule`` at ``step.path`` in the reverse direction.

    Returns the rewritten process, or None when the reverse direction does
    not apply there (the two garbage-collection rules only erase).
    """
    q = get_at(step.result, step.path)
    want = {"LR": "RL", "RL": "LR"}[step.direction]
    if step.rule in ("par-comm", "res-swap"):
        want = step.direction  # self-inverse laws
    for rule, direction, replacement in _local_steps(q):
        candidate = replace_at(step.result, step.path, replacement)
        if rule == step.rule and direction == want and candidate == source:
            return candidate
    return None


# ---------------------------------------------------------------------------
# Reduction by a radius-bounded search: the reference for exact reduction
# ---------------------------------------------------------------------------

def _active_positions(p: Process, prefix=()) -> Iterator[tuple[tuple, Process]]:
    """Positions reachable without passing a prefix or a replication: the
    only places where redex-exposing rewrites can matter."""
    yield prefix, p
    if isinstance(p, Par):
        yield from _active_positions(p.left, prefix + ("left",))
        yield from _active_positions(p.right, prefix + ("right",))
    elif isinstance(p, New):
        yield from _active_positions(p.cont, prefix + ("cont",))


def _expose_steps(p: Process) -> Iterator[Process]:
    """Rewrites that can reveal new redexes: unfolding an active replication,
    and extruding a restriction out of its parallel soup."""
    for path, q in _active_positions(p):
        if isinstance(q, Repl):
            yield replace_at(p, path, Par(q.body, Repl(q.body)))
    for path, q in _active_positions(p):
        # Only maximal parallel regions count as soups.
        if not isinstance(q, Par) or (path and isinstance(get_at(p, path[:-1]), Par)):
            continue
        components = _soup(q, path)
        for comp_path, comp in components:
            if not isinstance(comp, New):
                continue
            others = [c for cp, c in components if cp != comp_path]
            if any(comp.binder in free_vars(o) for o in others):
                continue
            region = replace_at(p, comp_path, comp.cont)
            region_soup = get_at(region, path)
            yield replace_at(p, path, New(comp.binder, comp.annot, region_soup))


def reference_reduce_step_labeled(p: Process, radius: int = 3) -> list[tuple[str, Process]]:
    """Reducts labeled with the channel the communication fired on, found by
    a breadth-first search over at most ``radius`` redex-exposing rewrites.

    A communication is identified by its channel and the two prefix subjects;
    only its first occurrence over the exposure search fires, so extra
    replication unfoldings do not multiply equivalent reducts.
    """
    results: list[tuple[str, Process]] = []
    seen_results = set()
    seen_coms = set()
    frontier = [p]
    visited = {p}
    for _ in range(radius + 1):
        for variant in frontier:
            for com in _coms(variant):
                key = (com.chan, get_at(variant, com.out_path), get_at(variant, com.in_path))
                if key in seen_coms:
                    continue
                seen_coms.add(key)
                reduct = _fire(variant, com)
                if reduct not in seen_results:
                    seen_results.add(reduct)
                    results.append((com.chan, reduct))
        next_frontier = []
        for variant in frontier:
            for exposed in _expose_steps(variant):
                if exposed not in visited:
                    visited.add(exposed)
                    next_frontier.append(exposed)
        frontier = next_frontier
        if not frontier:
            break
    return results


_SOUP_CHANNELS = ("x", "y")
_SOUP_ANNOTS = (parse_type("un end"), parse_type("<lin !(un end).un end, lin ?(un end).un end>"))


def gen_soup_process(rng, size: int) -> Process:
    """A random process of about ``size`` nodes built from ``|``, ``!``,
    ``new`` and prefixes on two channels, the restrictions binding those
    channels: the shapes whose redexes need rewrites to meet.  About a
    third of them have a redex; ``gen_process`` rarely makes one."""
    if size <= 1:
        chan = rng.choice(_SOUP_CHANNELS)
        return rng.choice([Output(chan, "v", Zero()), Input(chan, "z", Zero())])
    kind = rng.choice(["par"] * 4 + ["repl", "new", "out", "in"])
    if kind == "par":
        split = rng.randint(1, max(1, size - 2))
        return Par(gen_soup_process(rng, split), gen_soup_process(rng, size - 1 - split))
    if kind == "repl":
        return Repl(gen_soup_process(rng, size - 1))
    if kind == "new":
        binder = rng.choice(_SOUP_CHANNELS)
        return New(binder, rng.choice(_SOUP_ANNOTS), gen_soup_process(rng, size - 1))
    cont = gen_soup_process(rng, size - 1) if rng.random() < 0.3 else Zero()
    chan = rng.choice(_SOUP_CHANNELS)
    if kind == "out":
        return Output(chan, rng.choice(("v",) + _SOUP_CHANNELS), cont)
    return Input(chan, "z", cont)


# ---------------------------------------------------------------------------
# Bounded tree expansion: an equality oracle independent of type_equal
# ---------------------------------------------------------------------------

def expand_endpoint(s, depth: int):
    if depth == 0:
        return "*"
    h = unfold(s)
    match h.pre:
        case End():
            return (h.qual.value, "end")
        case Recv(payload, cont):
            return (h.qual.value, "?", expand_type(payload, depth - 1), expand_endpoint(cont, depth - 1))
        case Send(payload, cont):
            return (h.qual.value, "!", expand_type(payload, depth - 1), expand_endpoint(cont, depth - 1))


def expand_type(t, depth: int):
    if isinstance(t, ChanType):
        return ("chan", expand_endpoint(t.left, depth), expand_endpoint(t.right, depth))
    return expand_endpoint(t, depth)


def trees_equal(a, b) -> bool:
    """Equality of expansion trees, commuting the two sides of channel nodes."""
    if a == "*" or b == "*":
        return True
    if isinstance(a, tuple) and a[0] == "chan":
        if not (isinstance(b, tuple) and b[0] == "chan"):
            return False
        return (trees_equal(a[1], b[1]) and trees_equal(a[2], b[2])) or (
            trees_equal(a[1], b[2]) and trees_equal(a[2], b[1])
        )
    if isinstance(b, tuple) and b[0] == "chan":
        return False
    if not (isinstance(a, tuple) and isinstance(b, tuple)):
        return a == b
    if len(a) != len(b) or a[:2] != b[:2]:
        return False
    return all(trees_equal(x, y) for x, y in zip(a[2:], b[2:]))


def expansion_equal(t1: Type, t2: Type, depth: int = 12) -> bool:
    return trees_equal(expand_type(t1, depth), expand_type(t2, depth))


# ---------------------------------------------------------------------------
# Retyping for subject-reduction suites
# ---------------------------------------------------------------------------

def retyped(i: DeclContext, chan: str) -> DeclContext:
    """``i`` after one communication on ``chan``: a free channel's entry
    advances one step; a restricted channel (not in ``i``, since terms are
    renamed apart from it) leaves ``i`` unchanged."""
    return i.set(chan, advance_type(i.get(chan))) if chan in i else i


def accepted_family(count: int) -> list:
    """At least ``count`` accepted (context, process) pairs, deterministic."""
    builders = [
        lambda i: poll_system(1 + i % 4),
        lambda i: poll_system(1 + i % 4, swapped=True),
        lambda i: lin_pingpong(),
        lambda i: un_server(1 + i % 4),
        lambda i: delegation(),
        lambda i: closed_session(),
    ]
    out = []
    i = 0
    while len(out) < count:
        out.append(builders[i % len(builders)](i))
        i += 1
    return out


def accepted(ctx, p) -> bool:
    return type_check(ctx, p, trace=False).accepted


# ---------------------------------------------------------------------------
# The binary split search: the reference for the oracle's soup search
# ---------------------------------------------------------------------------

def _exhaustive_splits(i: DeclContext, *names) -> Iterator[declarative.Split]:
    """Every split the splitting rules license, whichever names each side uses."""
    return declarative.enumerate_splits(i)


class _ReferenceSearch:
    """The oracle's search with one binary split per ``|``, copied from it
    before soups were split n ways, except that every split it tries is
    exhaustive.  Recursive calls sit in plain loops, not in ``any(...)``, so
    that each process level costs two frames."""

    def __init__(self, bound: int):
        self.left = bound
        self.memo: dict[tuple, bool] = {}

    def derivable(self, i: DeclContext, p: Process) -> bool:
        """Probe the memo once; a goal not decided yet costs one node."""
        key = (i.canonical(), p)
        result = self.memo.get(key)
        if result is None:
            self.left -= 1
            if self.left < 0:
                raise declarative._BudgetExceeded
            result = self.memo[key] = self._derive(i, p)
        return result

    def _derive(self, i: DeclContext, p: Process) -> bool:
        match p:
            case Zero():
                return is_un_decl_context(i)
            case Repl(body):
                return is_un_decl_context(i) and self.derivable(i, body)
            case Par(left, right):
                for split in _exhaustive_splits(i, free_vars(left), free_vars(right)):
                    if self.derivable(split.left, left) and self.derivable(split.right, right):
                        return True
                return False
            case New(binder, annot, body):
                inner = _bind(i, binder, annot) if is_safe_type(annot) else None
                return inner is not None and self.derivable(inner, body)
            case Input(chan, binder, body):
                t = i.get(chan)
                if t is None:
                    return False
                for t2, payload in _shapes(t, Recv):
                    inner = _bind(i.set(chan, t2), binder, payload)
                    if inner is not None and self.derivable(inner, body):
                        return True
                return False
            case Output(chan, arg, body):
                for split in _exhaustive_splits(i, {arg}, free_vars(body) | {chan}):
                    t = split.right.get(chan)
                    if t is None:
                        continue
                    for t2, payload in _shapes(t, Send):
                        if not derivable_value(split.left, arg, payload):
                            continue
                        if self.derivable(split.right.set(chan, t2), body):
                            return True
                return False
        raise TypeError(f"not a process: {p!r}")


def reference_derivable(i: DeclContext, p: Process, bound: int = 200_000) -> OracleResult:
    """``declarative.derivable`` by the binary search over exhaustive splits."""
    search = _ReferenceSearch(bound)
    try:
        ok = search.derivable(i, p)
    except declarative._BudgetExceeded:
        return OracleResult(Verdict.INCONCLUSIVE, bound, bound)
    verdict = Verdict.DERIVABLE if ok else Verdict.NOT_DERIVABLE
    return OracleResult(verdict, bound, bound - search.left)


def use_exhaustive_splits(monkeypatch) -> None:
    """Make ``derivable``, wherever it is called from, run the search of
    ``reference_derivable``."""
    monkeypatch.setattr(declarative, "_Search", _ReferenceSearch)


def shadowing_procs(size: int, names: tuple, annots: list) -> Iterator[Process]:
    """Every process of at most ``size`` nodes over ``names`` whose binders
    are x, y or u, so that they shadow the context's names and each other;
    restrictions carry each of ``annots``."""
    if size >= 1:
        yield Zero()
    if size >= 2:
        for cont in shadowing_procs(size - 1, names, annots):
            yield Repl(cont)
        for chan in names:
            for arg in names:
                for cont in shadowing_procs(size - 1, names, annots):
                    yield Output(chan, arg, cont)
        for binder in ("x", "y", "u"):
            inner = names if binder in names else names + (binder,)
            for cont in shadowing_procs(size - 1, inner, annots):
                for chan in names:
                    yield Input(chan, binder, cont)
                for annot in annots:
                    yield New(binder, annot, cont)
    if size >= 3:
        for k in range(1, size - 1):
            for left in shadowing_procs(k, names, annots):
                for right in shadowing_procs(size - 1 - k, names, annots):
                    yield Par(left, right)


# ---------------------------------------------------------------------------
# Reference checker: A-Par as its rule reads, by two recursive calls
# ---------------------------------------------------------------------------

class ReferenceParChecker(_Checker):
    """The checker with ``A-Par`` run as two recursive calls, the left thread
    under the input context and the right one under its residue, each ``|``
    with its audit record, trace step and invariant check.  Any other node
    goes to ``_Checker.check``, whose rule bodies call back here."""

    def check(self, g: Context, p: Process) -> Context:
        if not isinstance(p, Par):
            return super().check(g, p)
        if self.audits is not None:
            self.audits.append(AuditRecord(p, 1))
        step = None
        if self.trace is not None:
            step = TraceStep("A-Par", g, p)
            self.trace.append(step)
        out = self.check(self.check(g, p.left), p.right)
        if step is not None:
            step.output_ctx = out
        if self.runtime_audits:
            self._check_invariants(g, out, p)
        return out


# ---------------------------------------------------------------------------
# Deep inputs: (name, context text, process text)
# ---------------------------------------------------------------------------

UN_CHANNEL_CTX = "c : <rec a. un ?(un end).a, rec b. un !(un end).b>\nv : un end"


def deep_inputs() -> dict[str, tuple[str, str]]:
    """Context and process texts of a 400-prefix chain and a 400-way ``|``
    on an unrestricted channel, half sends and half receives, and of
    ``poll_system(350)``: each is well typed, and takes the checker several
    hundred rule instances deep."""
    prefixes = ["c!v." if i % 2 else f"c?(b{i})." for i in range(400)]
    threads = [f"{prefix}0" for prefix in prefixes]
    return {
        "chain": (UN_CHANNEL_CTX, "".join(prefixes) + "0"),
        "wide": (UN_CHANNEL_CTX, " | ".join(threads)),
        "poll": (poll_context_text(350), f"{poll_service_text()} | {poll_client_text(350)}"),
    }


# ---------------------------------------------------------------------------
# Reference renamer: three recursive walks, renaming every term
# ---------------------------------------------------------------------------

def _names(p, free: bool) -> frozenset:
    """Free names of ``p``, or all its names when ``free`` is false."""
    match p:
        case Zero():
            return frozenset()
        case Par(left, right):
            return _names(left, free) | _names(right, free)
        case Repl(body):
            return _names(body, free)
        case Output(chan, arg, cont):
            return frozenset((chan, arg)) | _names(cont, free)
        case Input(chan, binder, cont):
            if free:
                return frozenset((chan,)) | (_names(cont, free) - {binder})
            return frozenset((chan, binder)) | _names(cont, free)
        case New(binder, _, cont):
            if free:
                return _names(cont, free) - {binder}
            return frozenset((binder,)) | _names(cont, free)


def reference_rename(p, avoid=frozenset()):
    """``barendregt_rename`` as it was before clash-free terms were returned
    unchanged: it rebuilds every term, walking it three times."""
    used = set(_names(p, True)) | set(avoid)
    present = set(_names(p, False)) | set(avoid)
    counters: dict[str, int] = {}

    def bind(binder: str) -> str:
        name = binder
        if binder in used:
            n = counters.get(binder, 0)
            while True:
                n += 1
                name = f"{binder}{n}"
                if name not in used and name not in present:
                    counters[binder] = n
                    break
        used.add(name)
        return name

    def rename(q, env: dict):
        match q:
            case Zero():
                return q
            case Par(left, right):
                return Par(rename(left, env), rename(right, env), pos=q.pos)
            case Repl(body):
                return Repl(rename(body, env), pos=q.pos)
            case Output(chan, arg, cont):
                return Output(env.get(chan, chan), env.get(arg, arg), rename(cont, env), pos=q.pos)
            case Input(chan, binder, cont):
                fresh = bind(binder)
                return Input(env.get(chan, chan), fresh, rename(cont, {**env, binder: fresh}), pos=q.pos)
            case New(binder, annot, cont):
                fresh = bind(binder)
                return New(fresh, annot, rename(cont, {**env, binder: fresh}), pos=q.pos)

    return rename(p, {})


# ---------------------------------------------------------------------------
# Reference substitution: one recursive call per node
# ---------------------------------------------------------------------------

def reference_substitute(p, replacement: str, target: str):
    """``substitute`` as it was before it shared its walk with the renamer:
    one recursive call per node, stopping under a binder of ``target``."""
    if replacement == target:
        return p

    def sub(q):
        match q:
            case Zero():
                return q
            case Par(left, right):
                return Par(sub(left), sub(right), pos=q.pos)
            case Repl(body):
                return Repl(sub(body), pos=q.pos)
            case Output(chan, arg, cont):
                return Output(
                    replacement if chan == target else chan,
                    replacement if arg == target else arg,
                    sub(cont),
                    pos=q.pos,
                )
            case Input(chan, binder, cont):
                chan2 = replacement if chan == target else chan
                if binder == target:
                    return Input(chan2, binder, cont, pos=q.pos)
                if binder == replacement and target in free_vars(cont):
                    raise CaptureError(
                        f"substituting {replacement} for {target} would be captured by {binder}"
                    )
                return Input(chan2, binder, sub(cont), pos=q.pos)
            case New(binder, annot, cont):
                if binder == target:
                    return q
                if binder == replacement and target in free_vars(cont):
                    raise CaptureError(
                        f"substituting {replacement} for {target} would be captured by {binder}"
                    )
                return New(binder, annot, sub(cont), pos=q.pos)

    return sub(p)


# ---------------------------------------------------------------------------
# Reference printer: one recursive __str__ per process node
# ---------------------------------------------------------------------------

def reference_str(p) -> str:
    """Process text, one recursive call per node: the reference that the
    explicit-stack printer must match."""

    def factor(q) -> str:
        return f"({reference_str(q)})" if isinstance(q, Par) else reference_str(q)

    match p:
        case Zero():
            return "0"
        case Par(left, right):
            return f"{reference_str(left)} | {factor(right)}"
        case Repl(body):
            return f"!{factor(body)}"
        case Output(chan, arg, cont):
            return f"{chan}!{arg}.{factor(cont)}"
        case Input(chan, binder, cont):
            return f"{chan}?({binder}).{factor(cont)}"
        case New(binder, annot, cont):
            return f"new {binder}: {annot}. {factor(cont)}"


def reference_type_str(t) -> str:
    """Type or entry text, one recursive call per node: the reference that
    the explicit-stack ``syntax.render`` must match."""
    match t:
        case Recv(payload, cont):
            return f"?({reference_type_str(payload)}).{reference_type_str(cont)}"
        case Send(payload, cont):
            return f"!({reference_type_str(payload)}).{reference_type_str(cont)}"
        case End():
            return "end"
        case Qualified(qual, pre):
            return f"{qual.value} {reference_type_str(pre)}"
        case TypeVar(name):
            return name
        case Rec(var, body):
            return f"rec {var}. {reference_type_str(body)}"
        case ChanType(left, right):
            return f"<{reference_type_str(left)}, {reference_type_str(right)}>"
        case Single(item):
            return reference_type_str(item)
        case Void():
            return "◦"


# ---------------------------------------------------------------------------
# Reference validation: closed and contractive, checked by walking the result
# ---------------------------------------------------------------------------

def reference_validate(value) -> None:
    """Raise ``ValueError`` if a type in ``value`` has a free type variable or
    a non-contractive ``rec``: the walks the parser made over its result
    before it checked types as it read them.  ``value`` is a type, an entry,
    or a process whose restriction annotations are checked."""

    def walk(s, bound: frozenset[str]):
        match s:
            case TypeVar(name):
                if name not in bound:
                    raise ValueError(f"unbound type variable {name!r}")
            case Rec(_, _):
                chain = []
                inner = s
                while isinstance(inner, Rec):
                    chain.append(inner.var)
                    inner = inner.body
                if isinstance(inner, TypeVar) and inner.name in chain:
                    raise ValueError(f"non-contractive recursive type: rec {s.var}. ...")
                walk(s.body, bound | {s.var})
            case Qualified(_, Recv(payload, cont)) | Qualified(_, Send(payload, cont)):
                walk_type(payload, bound)
                walk(cont, bound)
            case Qualified(_, End()):
                pass

    def walk_type(t, bound: frozenset[str]):
        if isinstance(t, ChanType):
            walk(t.left, bound)
            walk(t.right, bound)
        elif t is not VOID:
            walk(t, bound)

    match value:
        case Single(item):
            walk_type(item, frozenset())
        case ChanType(left, right):
            walk_type(left, frozenset())
            walk_type(right, frozenset())
        case New(_, annot, cont):
            walk_type(annot, frozenset())
            reference_validate(cont)
        case Par(left, right):
            reference_validate(left)
            reference_validate(right)
        case Repl(body) | Output(_, _, body) | Input(_, _, body):
            reference_validate(body)
        case Zero():
            pass
        case _:
            walk_type(value, frozenset())


# ---------------------------------------------------------------------------
# Reference tokenizer: one match per token, line and column kept as it goes
# ---------------------------------------------------------------------------

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
_KEYWORDS = frozenset({"new", "lin", "un", "rec", "end", "void"})


def reference_tokenize(src: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` for every token of ``src`` and a final
    ``("eof", "", line, column)``: the parser's tokenizer before it read all
    the tokens in one scan.  Raises the parser's ``ParseError`` on a
    character no token starts with."""
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
            tokens.append((text if text in _KEYWORDS else "ident", text, line, col))
        elif m.lastgroup == "void":
            tokens.append(("void", text, line, col))
        else:
            tokens.append((text, text, line, col))
        col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Reference context algebra: entry facts recomputed on every call
# ---------------------------------------------------------------------------

def reference_is_safe_entry(e) -> bool:
    """``is_safe_entry`` before it kept each entry's answer."""
    if isinstance(e, Single) or isinstance(e.left, Void) or isinstance(e.right, Void):
        return True
    return is_safe_type(ChanType(e.left, e.right))


def reference_is_un_entry(e) -> bool:
    """``is_un_entry`` before it kept each entry's answer."""
    match e:
        case Single(item):
            return is_un_type(item)
        case ChanType(left, right):
            return is_un_type(left) and is_un_type(right)
    raise TypeError(f"not an entry: {e!r}")


def reference_io_head(s, ctor) -> Optional[Qualified]:
    """``equality.io_head`` before it kept each answer."""
    h = unfold(s)
    if not isinstance(h.pre, ctor):
        return None
    if h.qual is Qual.UN and not type_equal(h.pre.cont, s):
        return None
    return h


def _reference_pointwise(g1: Context, g2: Context, op, what: str) -> Context:
    """Combine two contexts of equal domain slot by slot with ``op``, looking
    each name of ``g1`` up in ``g2``."""
    if g1.names() != g2.names():
        raise ContextAlgebraError(f"{what} needs contexts with equal domains")
    out = []
    for name, e1 in g1.items():
        e2 = g2.get(name)
        match (e1, e2):
            case (Single(a), Single(b)):
                out.append(Single(op(a, b)))
            case (ChanType(a, b), ChanType(c, d)):
                out.append(ChanType(op(a, c), op(b, d)))
            case _:
                raise ContextAlgebraError(f"entry shapes for {name} differ: {e1} vs {e2}")
    return g1.with_entries(out)


def reference_closure(g1: Context, g2: Context) -> Context:
    """``contexts.closure`` before it kept the closure of each entry pair."""
    return _reference_pointwise(g1, g2, _close_item, "closure")


def reference_used_map(g: Context) -> DeclContext:
    """``contexts.used_map`` before it kept each entry's projection."""
    out = []
    for _, e in g.items():
        match e:
            case Single(item):
                out.append(_used_item(item))
            case ChanType(left, right):
                out.append(ChanType(_used_item(left), _used_item(right)))
    return g.with_entries(out)


# ---------------------------------------------------------------------------
# Reference variable rules: re-derived on every call
# ---------------------------------------------------------------------------

def reference_var_matches(g: Context, x: str, t: Type) -> list[tuple[str, Context]]:
    """(rule, residual context) for each variable rule whose guard holds:
    the checker's ``_var_matches`` before it kept the rules of each
    (entry, type) pair."""
    entry = g.get(x)
    if entry is None:
        return []
    if isinstance(t, ChanType):
        if not isinstance(entry, ChanType):
            return []
        left, right = entry.left, entry.right
        if left is VOID or right is VOID:
            return []
        qual = unfold(left).qual
        if unfold(right).qual is not qual:
            return []
        if type_equal(left, t.left) and type_equal(right, t.right):
            suffix = "-l"
        elif type_equal(left, t.right) and type_equal(right, t.left):
            suffix = "-r"
        else:
            return []
        if qual is Qual.LIN:
            return [("A-V-LL" + suffix, g.set(x, ChanType(VOID, VOID)))]
        return [("A-V-UU" + suffix, g)]
    qual = unfold(t).qual
    hits = [
        suffix
        for suffix, item in _slots(entry)
        if item is not VOID and unfold(item).qual is qual and type_equal(item, t)
    ]
    if qual is Qual.LIN:
        matches = [("A-V-L" + suffix, g.set(x, _consumed(entry, suffix))) for suffix in hits]
    elif len(hits) == 1:
        matches = [("A-V-U" + hits[0], g)]
    else:
        matches = []
    if (
        isinstance(entry, ChanType)
        and entry.left is not VOID
        and entry.right is not VOID
        and is_un_end(entry.left)
        and is_un_end(entry.right)
        and is_un_end(t)
    ):
        matches.append(("A-V-EE", g))
    return matches
