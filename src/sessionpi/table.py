"""Regression table for the context algebra.

Each row fixes one entry shape for three contexts g1, g2, g3 (with
``g1 ⊢ P ▷ g2`` and ``g2 ⊢ Q ▷ g3`` in mind) and records the expected
closures ``g1▷g2``, ``g2▷g3``, ``g1▷g3``, the solution ``g4`` of the linear
system

    g1 = (g2 ▷ g3) ⊎ g4
    g4 = (g1 ▷ g2) ⊎ g3

and the fully-consumed shape ``∇`` (equal for g1 and g2).  The table covers
every combination of linear, unrestricted and void slots that the checker
can produce; ``evaluate_table`` recomputes all columns from the algebra and
diffs them cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .contexts import (
    VOID,
    Context,
    Entry,
    Single,
    closure,
    context_equal,
    nabla,
    update_context,
)
from .parser import parse_type
from .syntax import ChanType

LIN_P1 = parse_type("lin ?(un end).un end")
LIN_P2 = parse_type("lin !(un end).un end")
UN_P1 = parse_type("un ?(un end).un end")
UN_P2 = parse_type("un !(un end).un end")


_s, _p = Single, ChanType  # the two entry shapes, short for the rows below


@dataclass(frozen=True)
class TableRow:
    index: int
    g1: Entry
    g2: Entry
    g3: Entry
    c12: Entry  # g1 ▷ g2
    c23: Entry  # g2 ▷ g3
    c13: Entry  # g1 ▷ g3
    g4: Entry
    nabla: Entry


def expected_rows() -> list[TableRow]:
    l1, l2, u1, u2, v = LIN_P1, LIN_P2, UN_P1, UN_P2, VOID
    rows = [
        # g1        g2          g3          g1▷g2       g2▷g3       g1▷g3       g4          ∇
        (_s(l1),    _s(l1),     _s(l1),     _s(v),      _s(v),      _s(v),      _s(l1),     _s(v)),
        (_s(l1),    _s(l1),     _s(v),      _s(v),      _s(l1),     _s(l1),     _s(v),      _s(v)),
        # Row 3's g1▷g3 follows the closure definition (lin p ▷ ◦ = lin p),
        # matching the corresponding pair rows below.
        (_s(l1),    _s(v),      _s(v),      _s(l1),     _s(v),      _s(l1),     _s(l1),     _s(v)),
        (_s(u1),    _s(u1),     _s(u1),     _s(u1),     _s(u1),     _s(u1),     _s(u1),     _s(u1)),
        (_s(v),     _s(v),      _s(v),      _s(v),      _s(v),      _s(v),      _s(v),      _s(v)),
        (_p(l1, l2), _p(l1, l2), _p(l1, l2), _p(v, v),  _p(v, v),   _p(v, v),   _p(l1, l2), _p(v, v)),
        (_p(l1, l2), _p(l1, l2), _p(l1, v),  _p(v, v),  _p(v, l2),  _p(v, l2),  _p(l1, v),  _p(v, v)),
        (_p(l1, l2), _p(l1, v),  _p(l1, v),  _p(v, l2), _p(v, v),   _p(v, l2),  _p(l1, l2), _p(v, v)),
        (_p(l1, l2), _p(l1, l2), _p(v, l2),  _p(v, v),  _p(l1, v),  _p(l1, v),  _p(v, l2),  _p(v, v)),
        (_p(l1, l2), _p(v, l2),  _p(v, l2),  _p(l1, v), _p(v, v),   _p(l1, v),  _p(l1, l2), _p(v, v)),
        (_p(l1, l2), _p(l1, l2), _p(v, v),   _p(v, v),  _p(l1, l2), _p(l1, l2), _p(v, v),   _p(v, v)),
        (_p(l1, l2), _p(l1, v),  _p(v, v),   _p(v, l2), _p(l1, v),  _p(l1, l2), _p(v, l2),  _p(v, v)),
        (_p(l1, l2), _p(v, l2),  _p(v, v),   _p(l1, v), _p(v, l2),  _p(l1, l2), _p(l1, v),  _p(v, v)),
        (_p(l1, l2), _p(v, v),   _p(v, v),   _p(l1, l2), _p(v, v),  _p(l1, l2), _p(l1, l2), _p(v, v)),
        (_p(l1, v),  _p(l1, v),  _p(l1, v),  _p(v, v),  _p(v, v),   _p(v, v),   _p(l1, v),  _p(v, v)),
        (_p(l1, v),  _p(l1, v),  _p(v, v),   _p(v, v),  _p(l1, v),  _p(l1, v),  _p(v, v),   _p(v, v)),
        (_p(l1, v),  _p(v, v),   _p(v, v),   _p(l1, v), _p(v, v),   _p(l1, v),  _p(l1, v),  _p(v, v)),
        (_p(v, l1),  _p(v, l1),  _p(v, l1),  _p(v, v),  _p(v, v),   _p(v, v),   _p(v, l1),  _p(v, v)),
        (_p(v, l1),  _p(v, l1),  _p(v, v),   _p(v, v),  _p(v, l1),  _p(v, l1),  _p(v, v),   _p(v, v)),
        (_p(v, l1),  _p(v, v),   _p(v, v),   _p(v, l1), _p(v, v),   _p(v, l1),  _p(v, l1),  _p(v, v)),
        (_p(u1, u2), _p(u1, u2), _p(u1, u2), _p(u1, u2), _p(u1, u2), _p(u1, u2), _p(u1, u2), _p(u1, u2)),
        (_p(u1, v),  _p(u1, v),  _p(u1, v),  _p(u1, v), _p(u1, v),  _p(u1, v),  _p(u1, v),  _p(u1, v)),
        (_p(v, u2),  _p(v, u2),  _p(v, u2),  _p(v, u2), _p(v, u2),  _p(v, u2),  _p(v, u2),  _p(v, u2)),
        (_p(v, v),   _p(v, v),   _p(v, v),   _p(v, v),  _p(v, v),   _p(v, v),   _p(v, v),   _p(v, v)),
    ]
    return [TableRow(i + 1, *cells) for i, cells in enumerate(rows)]


@dataclass
class RowOutcome:
    index: int
    ok: bool
    mismatches: list[str] = field(default_factory=list)


def _ctx(entry: Entry) -> Context:
    return Context([("x", entry)])


def evaluate_row(row: TableRow) -> RowOutcome:
    g1, g2, g3 = _ctx(row.g1), _ctx(row.g2), _ctx(row.g3)
    outcome = RowOutcome(row.index, True)

    def check(label: str, computed: Context, expected: Entry):
        if not context_equal(computed, _ctx(expected)):
            outcome.ok = False
            outcome.mismatches.append(
                f"{label}: computed {computed.get('x')}, expected {expected}"
            )

    c12 = closure(g1, g2)
    c23 = closure(g2, g3)
    check("g1▷g2", c12, row.c12)
    check("g2▷g3", c23, row.c23)
    check("g1▷g3", closure(g1, g3), row.c13)
    g4 = update_context(c12, g3)
    check("g4 = (g1▷g2) ⊎ g3", g4, row.g4)
    check("g1 = (g2▷g3) ⊎ g4", update_context(c23, g4), row.g1)
    check("∇(g1)", nabla(g1), row.nabla)
    check("∇(g2)", nabla(g2), row.nabla)
    return outcome


def evaluate_table() -> list[RowOutcome]:
    return [evaluate_row(row) for row in expected_rows()]
