"""The deterministic pattern-based type checker.

``check`` threads a context through a process: each rule receives a context,
consumes the capabilities the process uses, and returns the residue.  Rules
are selected by the shape of the subject's context entry and the head of the
process; on a safe context at most one pattern applies, so there is no
backtracking.  Consumed linear slots are marked ``◦`` so later threads
cannot reuse them.  A ``|`` soup is a left-to-right fold through its threads,
which ``check`` runs in one frame, keeping a record of each ``|`` to close: a
defunctionalized continuation (Danvy & Nielsen, PPDP 2001).

Dispatch reads the list of the rules whose guards hold straight from a
table, rejects at once when it is empty, and otherwise takes the first.  A
structural node's list comes from ``_STRUCTURAL`` by its class.  That of a
variable, send or receive depends only on the interned entry of its subject
and on the type or prefix it is used at, so ``_var_rules`` and ``_io_rules``
keep it in the memo of ``syntax._memoized`` the first time the pair is met.
With auditing on, the length of each list is recorded with the subject,
which on a safe context is at most one.  Process rules name their bodies,
looked up on the checker at each call.  Checking builds no text: a trace
step and an audit record keep their subject and render it when read, and an
error keeps a recipe for each text, formatted when read (``CheckError``).

Binding is scoped.  A binder whose name is already in the context shadows
that entry for the length of its scope, and the end of the scope puts the
entry back (``_bind`` and ``_unbind``).  On a term renamed to the Barendregt
convention no binder meets a name in its context, so scoped and plain
binding coincide.  On a raw term a scope hides exactly what renaming would
have kept apart under a fresh name: inside the scope every occurrence of the
name is the binder, so no rule reads the hidden entry, and at the end of the
scope the entry is back as the renamed run leaves it.  In ``x?(x).P`` the
binder hides its own channel, so the binder's residue is read inside the
scope and the channel's after it.  A term and its renaming therefore get the
same verdict, error kind and residue, and the convention only eases the
proofs (Urban, Berghofer & Norrish, "Barendregt's variable convention in
rule inductions", CADE 2007).  ``type_check`` checks the raw term unless a
trace or an audit must show the renamed one.

Rule names carried in traces:

* variables: A-V-L, A-V-U, A-V-LL-l/r, A-V-L-l/r, A-V-UU-l/r, A-V-U-l/r,
  A-V-EE.  The ``-l``/``-r`` suffix names the pair side being read or
  consumed (note: some presentations attach the suffixes of the two
  singleton linear rules the other way around).
* processes: A-Inact, A-Par, A-Repl, A-Res, A-Out-L(-l/-r), A-Out-Un(-l/-r),
  A-In-L(-l/-r), A-In-Un(-l/-r).

An entry is ``Single(item)`` or a ``ChanType`` whose ends may be ``◦``.
Rules read an entry through its ``slots``, each with the suffix its rule
names carry (``_slots``), so no rule has a case per entry shape.  The pair
variants unwrap one side, rerun the checker on the resulting single-slot
entry, and rewrap, which mirrors their premises exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .contexts import (
    VOID,
    Context,
    ContextAlgebraError,
    Entry,
    Item,
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

    ``location`` and ``detail`` are each a string or a recipe
    ``(function, *args)`` for one, a defunctionalized closure (Reynolds
    1972; Danvy & Nielsen, PPDP 2001).  A recipe is called on first read
    and replaced by its text, so a rejection allocates no closure, and a
    caller that reads only ``kind`` never formats a process or a type.
    """

    # Set by ``type_check`` on an error raised checking a raw term: the
    # context and the term.  When renaming changes the term, this error
    # takes on first read the texts of the error its renaming raises.
    _renamed: Optional[tuple[Context, Process]] = None

    def __init__(self, kind: ErrorKind, location: Union[str, tuple], detail: Union[str, tuple]):
        self.kind = kind
        self._location = location
        self._detail = detail

    def _text(self, name: str) -> str:
        if self._renamed is not None:
            (g, p), self._renamed = self._renamed, None
            source = _renamed_error(g, p)
            if source is not None:
                self._location, self._detail = source._location, source._detail
        text = getattr(self, name)
        if not isinstance(text, str):
            function, *args = text
            text = function(*args)
            setattr(self, name, text)
        return text

    @property
    def location(self) -> str:
        return self._text("_location")

    @property
    def detail(self) -> str:
        return self._text("_detail")

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
        return _site(self.node) if isinstance(self.node, tuple) else str(self.node)


@dataclass(frozen=True, eq=False, slots=True)
class AuditRecord:
    """Number of independently matching patterns at one recursive call.

    ``node`` is the call's subject, as in ``TraceStep``, or its site's text;
    ``site`` renders it when read, so an audited run builds no location
    string.  Records are equal when their sites and counts are."""

    node: Union[str, Process, tuple[str, Type]]
    count: int

    @property
    def site(self) -> str:
        return self.node if isinstance(self.node, str) else _site(self.node)

    def __eq__(self, other) -> bool:
        return isinstance(other, AuditRecord) and (self.site, self.count) == (other.site, other.count)

    def __hash__(self) -> int:
        return hash((self.site, self.count))


@dataclass
class CheckResult:
    accepted: bool
    residual: Optional[Context]
    error: Optional[CheckError]
    trace: list[TraceStep]
    audits: Optional[list[AuditRecord]]
    # The context and the process checked; ``process`` renames the process
    # when first read, unless the check was run on the renamed term.
    _checked: tuple[Context, Process] = field(repr=False)
    _renamed: Optional[Process] = field(default=None, repr=False, compare=False)

    @property
    def process(self) -> Process:
        """The checked process under the Barendregt convention."""
        if self._renamed is None:
            g, p = self._checked
            self._renamed = barendregt_rename(p, avoid=g.names())
        return self._renamed


def _loc(p: Process) -> str:
    text = render(p, limit=61)
    if len(text) > 60:
        text = text[:57] + "..."
    if getattr(p, "pos", None):
        return f"{text} (line {p.pos[0]}, col {p.pos[1]})"
    return text


def _site(node: Union[Process, tuple[str, Type]]) -> str:
    """Where a rule was sought: a process's location, or ``x : t`` for a variable."""
    if isinstance(node, tuple):
        return f"{node[0]} : {node[1]}"
    return _loc(node)


def _no_pattern(g: Context, node: Union[Process, tuple[str, Type]]) -> str:
    """Why no rule applies under ``g`` to ``node``, a send or receive, or a
    variable ``x`` used at ``t``, given as ``(x, t)``."""
    x, t = node if isinstance(node, tuple) else (node.chan, None)
    entry = g.get(x)
    if entry is None:
        return f"{x} is not in the context"
    if t is not None:
        return f"cannot use {x} (entry {entry}) at type {t}"
    return f"no pattern for {type(node).__name__.lower()} on {x} with entry {entry}"


def _bind(g: Context, binder: str, entry: Entry) -> tuple[Context, Optional[Entry]]:
    """``g`` with ``binder : entry`` in scope, and the entry it shadows or ``None``."""
    shadowed = g.get(binder)
    return (g.add(binder, entry) if shadowed is None else g.set(binder, entry)), shadowed


def _unbind(g: Context, binder: str, shadowed: Optional[Entry]) -> Context:
    """``g`` at the end of the scope of ``binder``: the entry it shadowed put
    back, or the binder removed."""
    return g.remove(binder) if shadowed is None else g.set(binder, shadowed)


def _require_un(p: Process, name: str, residue: Entry, where: str):
    """Reject ``p`` unless ``residue``, what is left of ``name``, is
    unrestricted; ``where`` is "in the continuation" or "in its scope"."""
    if not is_un_entry(residue):
        detail = ("linear usage of {} not finished {} (residue {})".format, name, where, residue)
        raise CheckError(ErrorKind.LINEAR_RESIDUAL, (_site, p), detail)


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
            return [("A-V-LL" + suffix, ChanType(VOID, VOID))]
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
# its body on ``_Checker`` or ``None`` for A-Par, extra arguments of the body).
_STRUCTURAL = {
    Zero: [("A-Inact", "_rule_inact", ())],
    Repl: [("A-Repl", "_rule_repl", ())],
    Par: [("A-Par", None, ())],
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

    # -- variables -----------------------------------------------------------

    def check_var(self, g: Context, x: str, t: Type) -> Context:
        entry = g.get(x)
        matches = () if entry is None else _var_rules(entry, t)
        if self.audits is not None:
            self.audits.append(AuditRecord((x, t), len(matches)))
        if not matches:
            raise CheckError(ErrorKind.NO_PATTERN, (_site, (x, t)), (_no_pattern, g, (x, t)))
        rule, left = matches[0]
        out = g if left is None else g.set(x, left)
        if self.trace is not None:
            self.trace.append(TraceStep(rule, g, (x, t), out))
        return out

    # -- processes -----------------------------------------------------------

    def check(self, g: Context, p: Process) -> Context:
        # Per open ``|``, ``todo`` holds its record (node, step, input context) below its right thread.
        todo = []
        while True:
            # A node that no structural rule matches is a send or a receive.
            matches = _STRUCTURAL.get(type(p))
            if matches is None:
                entry = g.get(p.chan)
                matches = () if entry is None else _io_rules(entry, type(p))
            if self.audits is not None:
                self.audits.append(AuditRecord(p, len(matches)))
            if not matches:
                raise CheckError(ErrorKind.NO_PATTERN, (_site, p), (_no_pattern, g, p))
            rule, body, extra = matches[0]
            step = None
            if self.trace is not None:
                step = TraceStep(rule, g, p)
                self.trace.append(step)
            if body is None:
                todo += ((p, step, g), p.right)
                p = p.left
                continue
            # The rule body is called from here, not through a helper, so
            # that each prefix costs two frames on the recursion path.
            g_in, g = g, getattr(self, body)(g, p, *extra)
            while True:
                if step is not None:
                    step.output_ctx = g
                if self.runtime_audits:
                    self._check_invariants(g_in, g, p)
                if not todo:
                    return g
                p = todo.pop()
                if type(p) is not tuple:
                    break
                p, step, g_in = p

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
        _require_un(p, p.chan, g3.get(p.chan), "in the continuation")
        return g3.set(p.chan, Single(VOID))

    def _rule_in_lin(self, g: Context, p: Input) -> Context:
        # Receive on a linear endpoint: bind the payload, resume at the
        # continuation type, close the binder's scope, demand unrestricted
        # residues for both the channel and the binder, and void the channel
        # slot.  The binder's residue is read inside its scope and the
        # channel's outside, which is where ``x?(x).P`` keeps each.
        h = unfold(g.get(p.chan).item)
        g1, shadowed = _bind(g.set(p.chan, Single(h.pre.cont)), p.binder, entry_of_type(h.pre.payload))
        g2 = self.check(g1, p.cont)
        residue = g2.get(p.binder)
        g3 = _unbind(g2, p.binder, shadowed)
        _require_un(p, p.chan, g3.get(p.chan), "in the continuation")
        _require_un(p, p.binder, residue, "in the continuation")
        return g3.set(p.chan, Single(VOID))

    def _rule_pair_side(self, g: Context, p: Process, side: Item, consumed: Entry) -> Context:
        # The pair-side variants: run the linear endpoint rule on one side
        # alone, then put back the pair with that side voided (``consumed``).
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
        g1, shadowed = _bind(g, p.binder, entry_of_type(head.pre.payload))
        g2 = self.check(g1, p.cont)
        _require_un(p, p.binder, g2.get(p.binder), "in its scope")
        return _unbind(g2, p.binder, shadowed)

    def _rule_res(self, g: Context, p: New) -> Context:
        if not is_safe_type(p.annot):
            detail = ("annotation {} is not safe".format, p.annot)
            raise CheckError(ErrorKind.UNSAFE_ANNOTATION, (_site, p), detail)
        g1, shadowed = _bind(g, p.binder, entry_of_type(p.annot))
        g2 = self.check(g1, p.cont)
        _require_un(p, p.binder, g2.get(p.binder), "in its scope")
        return _unbind(g2, p.binder, shadowed)

    def _rule_inact(self, g: Context, p: Zero) -> Context:
        return g

    def _rule_repl(self, g: Context, p: Repl) -> Context:
        g2 = self.check(g, p.body)
        if not context_equal(g2, g):
            detail = "a linear resource was consumed under replication"
            raise CheckError(ErrorKind.LINEAR_RESIDUAL, (_site, p), detail)
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

    The result's ``process`` is ``p`` alpha-renamed to the Barendregt
    convention (binders distinct from each other, from free names and from
    context names); the term is renamed when it is read.  Binding is
    scoped, so with the trace and the audit off ``p`` itself is checked,
    and a rejection's texts, read on demand, come from a check of the
    renamed term when renaming changes ``p``.  With either on, ``p`` is
    renamed first, since trace subjects and audit sites show the renamed
    term.  Rejects without checking on an unsafe context.
    """
    q = barendregt_rename(p, avoid=g.names()) if trace or audit else None
    if not is_safe_context(g):
        offending = [name for name, e in g.items() if not is_safe_entry(e)]
        err = CheckError(
            ErrorKind.UNSAFE_ANNOTATION,
            "initial context",
            f"context is not safe at {', '.join(offending)}",
        )
        return CheckResult(False, None, err, [], None, (g, p), q)
    run = _Checker(trace=trace, audit=audit, runtime_audits=runtime_audits)
    out, err = _outcome(run, g, p if q is None else q)
    if err is not None and q is None:
        err._renamed = (g, p)
    return CheckResult(err is None, out, err, _completed(run), run.audits, (g, p), q)


def _outcome(run: _Checker, g: Context, p: Process) -> tuple[Optional[Context], Optional[CheckError]]:
    """The unrestricted residue of ``run`` checking ``p`` against ``g``, or
    the error that rejects ``p``."""
    try:
        out = run.check(g, p)
    except CheckError as err:
        # Its traceback would reach, through the caller's frame, the result
        # that keeps the error: a cycle only the garbage collector frees.
        return None, err.with_traceback(None)
    except ContextAlgebraError as err:
        return None, CheckError(ErrorKind.PARTIAL_ALGEBRA, (str, p), str(err))
    if not is_un_context(out):
        offending = [name for name, e in out.items() if not is_un_entry(e)]
        return None, CheckError(
            ErrorKind.NON_UNRESTRICTED_RESULT,
            ", ".join(offending),
            f"linear entries survive at top level: {', '.join(offending)}",
        )
    return out, None


def _renamed_error(g: Context, p: Process) -> Optional[CheckError]:
    """The error that checking ``p`` renamed raises, or ``None`` when
    renaming keeps ``p``.  Scoped binding makes it of the same kind, and
    raised at the same subterm, as the error of checking ``p`` itself (see
    the module docstring)."""
    q = barendregt_rename(p, avoid=g.names())
    return None if q is p else _outcome(_Checker(trace=False), g, q)[1]


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
