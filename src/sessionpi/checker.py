"""The deterministic pattern-based type checker.

``check`` threads a context through a process: each rule receives a context,
consumes the capabilities the process uses, and returns the residue.  Rules
are selected by the shape of the subject's context entry and the head of the
process; on a safe context at most one pattern applies, so there is no
backtracking.  Consumed linear slots are marked ``◦`` so later threads
cannot reuse them.

Dispatch lists the rules whose guards hold and takes the first.  The list
of a structural node comes from one table by its class.  That of a
variable, send or receive depends only on the interned entry of its subject
and on the type or prefix it is used at, so it is kept in the memo of
``syntax._memoized`` the first time the pair is met.  With auditing on, the
length of each list is recorded, which on a safe context is at most one.
Process rules name their bodies, looked up on the checker at each call.
Location strings are built only when an audit record keeps them; a trace
step keeps its subject and renders it when read, and an error formats its
texts when they are read.

Rule names carried in traces:

* variables: A-V-L, A-V-U, A-V-LL-l/r, A-V-L-l/r, A-V-UU-l/r, A-V-U-l/r,
  A-V-EE.  The ``-l``/``-r`` suffix names the pair side being read or
  consumed (note: some presentations attach the suffixes of the two
  singleton linear rules the other way around).
* processes: A-Inact, A-Par, A-Repl, A-Res, A-Out-L(-l/-r), A-Out-Un(-l/-r),
  A-In-L(-l/-r), A-In-Un(-l/-r).

Rules read an entry through its ``slots``, each with the suffix its rule
names carry (``_slots``), so no rule has a case per entry shape.  The pair
variants unwrap one side, rerun the checker on the resulting single-slot
entry, and rewrap, which mirrors their premises exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .contexts import (
    VOID,
    Context,
    ContextAlgebraError,
    Entry,
    Item,
    Pair,
    Single,
    closure,
    context_equal,
    entry_of_type,
    is_safe_context,
    is_safe_entry,
    is_safe_type,
    is_un_context,
    is_un_entry,
    update_entry,
    used_map,
)
from .equality import io_head, is_un_end, type_equal, unfold
from .syntax import (
    ChanType,
    Input,
    New,
    Output,
    Par,
    Process,
    Qual,
    Qualified,
    Recv,
    Repl,
    Send,
    Type,
    Zero,
    _memoized,
    barendregt_rename,
    render,
)


class ErrorKind(enum.Enum):
    NO_PATTERN = "NoPattern"
    UNSAFE_ANNOTATION = "UnsafeAnnotation"
    LINEAR_RESIDUAL = "LinearResidual"
    NON_UNRESTRICTED_RESULT = "NonUnrestrictedResult"
    PARTIAL_ALGEBRA = "PartialAlgebra"


class CheckError(Exception):
    """Structured rejection raised while checking; surfaced in CheckResult.

    ``location`` and ``detail`` may be given as functions that build the
    text; each is called on first read, so a caller that reads only
    ``kind`` never formats a process or a type.
    """

    def __init__(
        self, kind: ErrorKind, location: str | Callable[[], str], detail: str | Callable[[], str]
    ):
        super().__init__()
        self.kind = kind
        self._location = location
        self._detail = detail

    @property
    def location(self) -> str:
        if not isinstance(self._location, str):
            self._location = self._location()
        return self._location

    @property
    def detail(self) -> str:
        if not isinstance(self._detail, str):
            self._detail = self._detail()
        return self._detail

    def __str__(self) -> str:
        return f"{self.kind.value} at {self.location}: {self.detail}"


class AuditViolation(Exception):
    """A runtime invariant audit failed; indicates a checker bug."""


@dataclass(slots=True)
class TraceStep:
    """One rule instance: its input context, its subject and, once the
    rule has returned, its output context.

    ``node`` is the subject itself: the process, or the ``(name, type)``
    pair of a variable step.  ``subject`` renders it when read, so a traced
    run builds no process text.
    """

    rule: str
    input_ctx: Context
    node: Union[Process, tuple[str, Type]]
    output_ctx: Optional[Context] = None

    @property
    def subject(self) -> str:
        if isinstance(self.node, tuple):
            return f"{self.node[0]} : {self.node[1]}"
        return str(self.node)


@dataclass(frozen=True)
class AuditRecord:
    """Number of independently matching patterns at one recursive call."""

    site: str
    count: int


@dataclass
class CheckResult:
    accepted: bool
    residual: Optional[Context]
    error: Optional[CheckError]
    trace: list[TraceStep] = field(default_factory=list)
    audits: Optional[list[AuditRecord]] = None
    process: Optional[Process] = None  # the renamed process that was checked


def _loc(p: Process) -> str:
    text = render(p, limit=61)
    if len(text) > 60:
        text = text[:57] + "..."
    if getattr(p, "pos", None):
        return f"{text} (line {p.pos[0]}, col {p.pos[1]})"
    return text


def _no_pattern(g: Context, p: Process) -> str:
    """Why no process rule applies to ``p`` under ``g``."""
    if not isinstance(p, (Output, Input)):
        return "no pattern applies"
    entry = g.get(p.chan)
    if entry is None:
        return f"{p.chan} is not in the context"
    return f"no pattern for {type(p).__name__.lower()} on {p.chan} with entry {entry}"


def _bind(g: Context, p: Process, binder: str, entry: Entry) -> Context:
    """``g`` with ``binder : entry`` added; the binder may not shadow an entry."""
    if binder in g:
        raise CheckError(
            ErrorKind.PARTIAL_ALGEBRA, lambda: _loc(p), f"binder {binder} shadows a context entry"
        )
    return g.add(binder, entry)


def _require_un(g: Context, p: Process, names: tuple[str, ...], where: str):
    """Reject ``p`` unless each of ``names`` is left unrestricted in ``g``;
    ``where`` is "in the continuation" or "in its scope"."""
    for name in names:
        residue = g.get(name)
        if not is_un_entry(residue):
            raise CheckError(
                ErrorKind.LINEAR_RESIDUAL,
                lambda: _loc(p),
                lambda: f"linear usage of {name} not finished {where} (residue {residue})",
            )


# The suffixes that rule names carry for the slots of an entry, by the
# number of its slots: none for a single slot, the pair side for a pair.
_SUFFIXES = {1: ("",), 2: ("-l", "-r")}


def _slots(entry: Entry) -> tuple[tuple[str, Item], ...]:
    """The slots of an entry, each with the suffix its rule names carry."""
    return tuple(zip(_SUFFIXES[len(entry.slots)], entry.slots))


def _consumed(entry: Entry, suffix: str) -> Entry:
    """``entry`` with the slot named by ``suffix`` voided."""
    return type(entry)(*(VOID if s == suffix else item for s, item in _slots(entry)))


@_memoized
def _var_rules(entry: Entry, t: Type) -> list[tuple[str, Optional[Entry]]]:
    """(rule, the entry it leaves, or ``None`` if it leaves ``entry``) for
    each variable rule whose guard holds on a name with ``entry`` used at ``t``."""
    slots = entry.slots
    full_pair = len(slots) == 2 and VOID not in slots  # neither side used up
    if isinstance(t, ChanType):
        if not full_pair:
            return []
        left, right = slots
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
            return [("A-V-LL" + suffix, Pair(VOID, VOID))]
        return [("A-V-UU" + suffix, None)]
    qual = unfold(t).qual
    hits = [
        suffix
        for suffix, item in _slots(entry)
        if item is not VOID and unfold(item).qual is qual and type_equal(item, t)
    ]
    if qual is Qual.LIN:
        rules = [("A-V-L" + suffix, _consumed(entry, suffix)) for suffix in hits]
    elif len(hits) == 1:
        # An unrestricted side is read alone only when the other side
        # differs from it, that is, when exactly one slot matches ``t``.
        rules = [("A-V-U" + hits[0], None)]
    else:
        rules = []
    if full_pair and all(map(is_un_end, (*slots, t))):
        rules.append(("A-V-EE", None))
    return rules


# The rules of the structural nodes.  A process rule match is (rule, name of
# its body on ``_Checker``, extra arguments of the body).
_STRUCTURAL = {
    Zero: [("A-Inact", "_rule_inact", ())],
    Repl: [("A-Repl", "_rule_repl", ())],
    Par: [("A-Par", "_rule_par", ())],
    New: [("A-Res", "_rule_res", ())],
}


@_memoized
def _io_rules(entry: Entry, kind: type) -> list[tuple]:
    """The matches of the send (``kind`` is ``Output``) or receive rules on a
    channel with ``entry``: linear rules before unrestricted ones, left first."""
    if kind is Output:
        rule, ctor, lin_body, un_body = "A-Out", Send, "_rule_out_lin", "_rule_out_un"
    else:
        rule, ctor, lin_body, un_body = "A-In", Recv, "_rule_in_lin", "_rule_in_un"
    heads = [(s, item, io_head(item, ctor)) for s, item in _slots(entry) if item is not VOID]
    lin = [
        (f"{rule}-L{s}", "_rule_pair_side", (item, _consumed(entry, s)))
        if s
        else (f"{rule}-L", lin_body, ())
        for s, item, h in heads
        if h is not None and h.qual is Qual.LIN
    ]
    un = [(f"{rule}-Un{s}", un_body, (h,)) for s, _, h in heads if h is not None and h.qual is Qual.UN]
    return lin + un


class _Checker:
    def __init__(self, trace: bool = True, audit: bool = False, runtime_audits: bool = False):
        self.trace: Optional[list[TraceStep]] = [] if trace else None
        self.audits: Optional[list[AuditRecord]] = [] if audit else None
        self.runtime_audits = runtime_audits

    def _first(self, matches: list, site: Callable[[], str]) -> Optional[tuple]:
        """The first match, or ``None``; when auditing, the number of
        matches is recorded at ``site()``."""
        if self.audits is not None:
            self.audits.append(AuditRecord(site(), len(matches)))
        return matches[0] if matches else None

    # -- variables -----------------------------------------------------------

    def check_var(self, g: Context, x: str, t: Type) -> Context:
        entry = g.get(x)
        found = self._first([] if entry is None else _var_rules(entry, t), lambda: f"{x} : {t}")
        if found is None:
            raise CheckError(
                ErrorKind.NO_PATTERN,
                lambda: f"{x} : {t}",
                lambda: (
                    f"{x} is not in the context"
                    if entry is None
                    else f"cannot use {x} (entry {entry}) at type {t}"
                ),
            )
        rule, left = found
        out = g if left is None else g.set(x, left)
        if self.trace is not None:
            self.trace.append(TraceStep(rule, g, (x, t), out))
        return out

    # -- processes -----------------------------------------------------------

    def _process_matches(self, g: Context, p: Process) -> list[tuple]:
        """The matches of the process rules whose guards hold."""
        rules = _STRUCTURAL.get(type(p))
        if rules is not None:
            return rules
        entry = g.get(p.chan) if isinstance(p, (Output, Input)) else None
        return [] if entry is None else _io_rules(entry, type(p))

    def check(self, g: Context, p: Process) -> Context:
        found = self._first(self._process_matches(g, p), lambda: _loc(p))
        if found is None:
            raise CheckError(ErrorKind.NO_PATTERN, lambda: _loc(p), lambda: _no_pattern(g, p))
        # The rule body is called from here, not through a helper, so that
        # each prefix costs two frames on the recursion path.
        rule, body, extra = found
        step = None
        if self.trace is not None:
            step = TraceStep(rule, g, p)
            self.trace.append(step)
        out = getattr(self, body)(g, p, *extra)
        if step is not None:
            step.output_ctx = out
        if self.runtime_audits:
            self._check_invariants(g, out, p)
        return out

    def _check_invariants(self, g: Context, out: Context, p: Process):
        # Domain preservation and safety of every successful return, and
        # definedness of the used projection of the consumption closure.
        if g._index is not out._index and g.names() != out.names():
            raise AuditViolation(f"domain changed while checking {_loc(p)}")
        if not is_safe_context(out):
            raise AuditViolation(f"unsafe output context after {_loc(p)}")
        try:
            used_map(closure(g, out))
        except ContextAlgebraError as err:
            raise AuditViolation(f"used closure undefined after {_loc(p)}: {err}") from err

    # -- rule bodies ----------------------------------------------------------

    def _rule_out_lin(self, g: Context, p: Output) -> Context:
        # Send on a linear endpoint: type the argument with the channel slot
        # voided, resume the continuation at the continuation type, demand an
        # unrestricted residue for the channel, and hand back a voided slot.
        h = unfold(g.get(p.chan).item)
        g2 = self.check_var(g.set(p.chan, Single(VOID)), p.arg, h.pre.payload)
        g3 = self.check(update_entry(g2, p.chan, h.pre.cont), p.cont)
        _require_un(g3, p, (p.chan,), "in the continuation")
        return g3.set(p.chan, Single(VOID))

    def _rule_in_lin(self, g: Context, p: Input) -> Context:
        # Receive on a linear endpoint: bind the payload, resume at the
        # continuation type, demand unrestricted residues for both the channel
        # and the binder, then drop the binder and void the channel slot.
        h = unfold(g.get(p.chan).item)
        g1 = _bind(g.set(p.chan, Single(h.pre.cont)), p, p.binder, entry_of_type(h.pre.payload))
        g2 = self.check(g1, p.cont)
        _require_un(g2, p, (p.chan, p.binder), "in the continuation")
        return g2.remove(p.binder).set(p.chan, Single(VOID))

    def _rule_pair_side(self, g: Context, p: Process, side: Item, consumed: Entry) -> Context:
        # Pair variants: run the linear endpoint rule on one side alone, then
        # put back the pair with that side voided (``consumed``).
        inner_out = self.check(g.set(p.chan, Single(side)), p)
        got = inner_out.get(p.chan)
        if got != Single(VOID):
            raise AuditViolation(f"endpoint rule left {p.chan} at {got}, expected ◦")
        return inner_out.set(p.chan, consumed)

    def _rule_out_un(self, g: Context, p: Output, head: Qualified) -> Context:
        # Send on an unrestricted endpoint: the type repeats itself, so the
        # argument is typed under the unchanged context.
        g2 = self.check_var(g, p.arg, head.pre.payload)
        return self.check(g2, p.cont)

    def _rule_in_un(self, g: Context, p: Input, head: Qualified) -> Context:
        g2 = self.check(_bind(g, p, p.binder, entry_of_type(head.pre.payload)), p.cont)
        _require_un(g2, p, (p.binder,), "in its scope")
        return g2.remove(p.binder)

    def _rule_res(self, g: Context, p: New) -> Context:
        if not is_safe_type(p.annot):
            raise CheckError(
                ErrorKind.UNSAFE_ANNOTATION,
                lambda: _loc(p),
                lambda: f"annotation {p.annot} is not safe",
            )
        g2 = self.check(_bind(g, p, p.binder, entry_of_type(p.annot)), p.cont)
        _require_un(g2, p, (p.binder,), "in its scope")
        return g2.remove(p.binder)

    def _rule_inact(self, g: Context, p: Zero) -> Context:
        return g

    def _rule_par(self, g: Context, p: Par) -> Context:
        return self.check(self.check(g, p.left), p.right)

    def _rule_repl(self, g: Context, p: Repl) -> Context:
        g2 = self.check(g, p.body)
        if not context_equal(g2, g):
            raise CheckError(
                ErrorKind.LINEAR_RESIDUAL,
                lambda: _loc(p),
                "a linear resource was consumed under replication",
            )
        return g2


def type_check(
    g: Context,
    p: Process,
    *,
    trace: bool = True,
    audit: bool = False,
    runtime_audits: bool = False,
) -> CheckResult:
    """Check ``p`` against ``g``; accept when the residue is unrestricted.

    The process is first alpha-renamed to the Barendregt convention (binders
    distinct from each other, from free variables, and from context names);
    traces show the renamed term, which the result keeps as ``process``.
    Rejects without checking on an unsafe context.
    """
    q = barendregt_rename(p, avoid=g.names())
    if not is_safe_context(g):
        offending = [name for name, e in g.items() if not is_safe_entry(e)]
        return CheckResult(
            accepted=False,
            residual=None,
            error=CheckError(
                ErrorKind.UNSAFE_ANNOTATION,
                "initial context",
                f"context is not safe at {', '.join(offending)}",
            ),
            process=q,
        )
    run = _Checker(trace=trace, audit=audit, runtime_audits=runtime_audits)
    try:
        out = run.check(g, q)
    except CheckError as err:
        # Its traceback would reach, through the caller's frame, the result
        # that keeps the error: a cycle only the garbage collector frees.
        return CheckResult(False, None, err.with_traceback(None), _completed(run), run.audits, q)
    except ContextAlgebraError as err:
        wrapped = CheckError(ErrorKind.PARTIAL_ALGEBRA, lambda: str(q), str(err))
        return CheckResult(False, None, wrapped, _completed(run), run.audits, q)
    if not is_un_context(out):
        offending = [name for name, e in out.items() if not is_un_entry(e)]
        err = CheckError(
            ErrorKind.NON_UNRESTRICTED_RESULT,
            ", ".join(offending),
            f"linear entries survive at top level: {', '.join(offending)}",
        )
        return CheckResult(False, None, err, _completed(run), run.audits, q)
    return CheckResult(True, out, None, _completed(run), run.audits, q)


def _completed(run: _Checker) -> list[TraceStep]:
    if run.trace is None:
        return []
    return [s for s in run.trace if s.output_ctx is not None]


def check(g: Context, p: Process) -> Context:
    """Bare checking kernel: returns the residual context or raises CheckError."""
    return _Checker(trace=False).check(g, p)


def check_var(g: Context, x: str, t: Type) -> Context:
    """Bare variable rule application: residual context or CheckError."""
    return _Checker(trace=False).check_var(g, x, t)


def audit_pattern_matches(g: Context, p: Process) -> list[AuditRecord]:
    """Match counts for every recursive call reached while checking (g, p).

    Counts the patterns whose guards hold, evaluated independently of which
    one runs; the run itself proceeds normally and may reject.  On a safe
    context every record's count is at most one.
    """
    run = _Checker(trace=False, audit=True)
    try:
        run.check(g, barendregt_rename(p, avoid=g.names()))
    except (CheckError, ContextAlgebraError):
        pass
    return run.audits or []
