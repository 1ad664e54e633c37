"""Typing contexts: entries with a consumed-endpoint marker, and their algebra.

An entry is ``Single(item)``, one endpoint slot, or a ``ChanType``, the
pair type of the two ends of one channel, whose ends may be ``◦``; its
``slots`` are ``(item,)`` or ``(left, right)``.  A slot holds an endpoint
type or the void marker ``◦``, which records that a linear end has been
used up and is no longer available; a pair with no ``◦`` is its own type.
Entries are interned like types: equal entries are one object, ``VOID`` is
the only void marker, and ``==`` and ``hash`` take constant time.  So an
entry's safety, unrestrictedness, used projection and closure against
another entry are each computed once and kept, like the facts of
``equality``, in the memo of ``syntax._memoized``.

The algebra on contexts acts slot by slot: each operation below is one
operation on items, applied over the ``slots`` of an entry (and, for the
binary ones, of the entry of the same name and shape in the other context).

* ``closure`` (``g1 ▷ g2``)  — the portion of ``g1`` consumed in producing
  ``g2`` (partial);
* ``used_map``               — projects a context to a void-free declarative
  context, reading consumed slots as ``un end``;
* ``nabla``                  — the fully-consumed shape of a context (every
  linear slot voided);
* ``update_context`` (``⊎``) — combination filling void slots, defined only
  when no linear capability would be duplicated.

A ``Context`` holds its entries over an index of its names (``_Index``)
shared by the contexts derived from it.  Over at most 32 names the entries
are one tuple; over more they are 32-wide chunks, so that a rule step
copies one chunk and a short spine rather than every entry, and contexts
derived from one another share the chunks they did not change.  Only
``get``, ``set``, ``add``, ``remove`` and ``used_map`` (which maps chunk to
chunk) read the layout themselves; other bulk operations read the entries
in order (``_flat``) and put their result in the layout of its index
(``_layout``).

Everything here is immutable and pure.
"""

from __future__ import annotations

import itertools
import weakref
from functools import partial
from typing import Iterable, Iterator, Union

from .equality import head_qual, is_un_end, type_equal, unfold
from .syntax import ChanType, Endpoint, Qual, Recv, Send, Type, UN_END
from .syntax import _Interned, _interned_node, _memoized, render


@_interned_node
class Void(_Interned):
    """Marker for a consumed, unusable endpoint slot."""

    def _pieces(self) -> tuple:
        return ("◦",)


VOID = Void()

Item = Union[Endpoint, Void]


@_interned_node
class Single(_Interned):
    item: Item

    @property
    def slots(self) -> tuple[Item]:
        return (self.item,)

    def _pieces(self) -> tuple:
        return (self.item,)


Entry = Union[Single, ChanType]  # a ``ChanType`` entry's ends may be ``VOID``


class ContextAlgebraError(Exception):
    """A partial operation (closure, update) was applied outside its domain."""


def entry_of_type(t: Type) -> Entry:
    return t if isinstance(t, ChanType) else Single(t)


def type_of_entry(e: Entry) -> Type:
    """Inverse of ``entry_of_type``; defined on void-free entries only."""
    if VOID in e.slots:
        raise ContextAlgebraError(f"entry {e} contains a void slot")
    return _used_entry(e)


def item_equal(m1: Item, m2: Item) -> bool:
    if isinstance(m1, Void) or isinstance(m2, Void):
        return isinstance(m1, Void) and isinstance(m2, Void)
    return type_equal(m1, m2)


def entry_equal(e1: Entry, e2: Entry) -> bool:
    """Slot-by-slot equality; pair sides are positional, not commuted."""
    return type(e1) is type(e2) and all(map(item_equal, e1.slots, e2.slots))


# Entries per chunk of a deep context (see ``_Index``).
_SHIFT = 5
_WIDTH = 1 << _SHIFT
_MASK = _WIDTH - 1


class _Index:
    """The names of a context in order, each with its position.

    Contexts over the same names in the same order share one index, and
    each holds only its entries, one per name, in the layout the index
    names.  An index over at most ``_WIDTH`` (32) names is flat: its
    contexts hold a tuple of entries.  A larger one is ``deep``: its
    contexts hold a tuple of chunks, each a tuple of ``_WIDTH`` entries
    but the last, which holds the rest, so the entry at position ``k`` is
    ``chunks[k >> 5][k & 31]``.  The layout thus depends on the names
    alone, and two contexts over one index share it.

    The indexes that ``add``, ``remove`` and ``subcontext`` derive are kept
    on the index they come from, so a run that binds and drops the same
    names reuses them.  An index made by adding a name copies the positions
    of the index it came from and adds the one new name, so a binder costs
    one dict copy, not a rebuild from all the names.  It answers the
    removal of that name with the index it came from, which it refers to
    weakly: no index keeps the one it came from alive, so a family of
    indexes is freed with the last context over it, without the garbage
    collector.  There is no table of all indexes.
    """

    __slots__ = ("names", "positions", "deep", "_plus", "_minus", "_subs", "_origin", "__weakref__")

    def __init__(self, names: tuple[str, ...], positions: dict[str, int] | None = None):
        self.names = names
        if positions is None:
            positions = dict(zip(names, range(len(names))))
        self.positions = positions
        self.deep = len(names) > _WIDTH
        self._plus: dict[str, _Index] | None = None
        self._minus: dict[str, _Index] | None = None
        self._subs: dict[tuple[str, ...], _Index] | None = None
        self._origin: weakref.ref | None = None

    def plus(self, name: str) -> "_Index":
        """The index with ``name`` appended."""
        if self._plus is None:
            self._plus = {}
        index = self._plus.get(name)
        if index is None:
            positions = self.positions.copy()
            positions[name] = len(self.names)
            index = self._plus[name] = _Index(self.names + (name,), positions)
            index._origin = weakref.ref(self)
        return index

    def minus(self, name: str) -> "_Index":
        """The index without ``name``."""
        if self._origin is not None and name == self.names[-1]:
            origin = self._origin()
            if origin is not None:
                return origin
        if self._minus is None:
            self._minus = {}
        index = self._minus.get(name)
        if index is None:
            index = self._minus[name] = _Index(tuple(n for n in self.names if n != name))
        return index

    def sub(self, names: tuple[str, ...]) -> "_Index":
        """The index over ``names``, some of this one's names."""
        if names == self.names:
            return self
        if self._subs is None:
            self._subs = {}
        index = self._subs.get(names)
        if index is None:
            index = self._subs[names] = _Index(names)
        return index


class Context:
    """Immutable finite map from names to entries.

    A context is its entries over an index from names to positions
    (``_Index``), which it shares with the contexts it derives.  Over at
    most 32 names the entries are one tuple, and ``set`` copies it.  Over
    more they are 32-wide chunks (a persistent vector of height one, after
    Driscoll, Sarnak, Sleator & Tarjan, "Making data structures
    persistent", JCSS 1989, and Bagwell, "Ideal Hash Trees", 2001):
    ``set`` copies one chunk and the spine of ``n / 32`` chunk pointers,
    ``add`` and ``remove`` of the last name copy the last chunk and the
    spine, ``remove`` of another name shifts each later chunk by one entry,
    and a derived context shares every chunk it did not change.
    ``items`` runs in insertion order; ``==`` and ``hash`` do not depend
    on the order.

    The derivability oracle uses the same map from names to void-free
    types (``DeclContext``); it needs ``canonical`` and ``__hash__``.
    """

    __slots__ = ("_index", "_entries")

    def __init__(self, entries: Iterable[tuple[str, Entry]] = ()):
        table = dict(entries)
        self._index = _Index(tuple(table))
        self._entries = _layout(self._index, tuple(table.values()))

    def __reduce__(self):
        # Copies and pickles rebuild the index, not the family it is in.
        return Context, (list(self.items()),)

    def get(self, name: str) -> Entry | None:
        index = self._index
        k = index.positions.get(name)
        if k is None:
            return None
        if index.deep:
            return self._entries[k >> _SHIFT][k & _MASK]
        return self._entries[k]

    def __contains__(self, name: str) -> bool:
        return name in self._index.positions

    def names(self) -> frozenset[str]:
        return frozenset(self._index.names)

    def items(self) -> Iterator[tuple[str, Entry]]:
        return zip(self._index.names, _flat(self))

    def set(self, name: str, entry: Entry) -> "Context":
        index = self._index
        k = index.positions[name]
        if index.deep:
            chunks = list(self._entries)
            chunk = list(chunks[k >> _SHIFT])
            chunk[k & _MASK] = entry
            chunks[k >> _SHIFT] = tuple(chunk)
            return _context(index, tuple(chunks))
        entries = list(self._entries)
        entries[k] = entry
        return _context(index, tuple(entries))

    def add(self, name: str, entry: Entry) -> "Context":
        if name in self._index.positions:
            raise KeyError(f"{name} already bound")
        index = self._index.plus(name)
        entries = self._entries
        if not index.deep:
            return _context(index, entries + (entry,))
        if not self._index.deep:
            return _context(index, (entries, (entry,)))  # 32 names: the first chunk
        if len(entries[-1]) < _WIDTH:
            return _context(index, entries[:-1] + (entries[-1] + (entry,),))
        return _context(index, entries + ((entry,),))

    def remove(self, name: str) -> "Context":
        k = self._index.positions[name]
        index = self._index.minus(name)
        entries = self._entries
        if not self._index.deep:
            return _context(index, entries[:k] + entries[k + 1 :])
        # The chunks before the one holding ``name`` are kept; each later
        # chunk moves down one place, its first entry closing the chunk
        # before it.
        c, k = k >> _SHIFT, k & _MASK
        moved = [entries[c][:k] + entries[c][k + 1 :]]
        for chunk in entries[c + 1 :]:
            moved[-1] += chunk[:1]
            moved.append(chunk[1:])
        chunks = entries[:c] + tuple(moved if moved[-1] else moved[:-1])
        return _context(index, chunks if index.deep else chunks[0])

    def with_entries(self, entries: Iterable[Entry]) -> "Context":
        """The context over the same names, in the same order, holding
        ``entries`` (one per name)."""
        entries = tuple(entries)
        if len(entries) != len(self):
            raise ValueError(f"{len(entries)} entries for {len(self)} names")
        return _context(self._index, _layout(self._index, entries))

    def subcontext(self, names: tuple[str, ...], entries: tuple) -> "Context":
        """The context of ``names``, some of this one's, holding ``entries``;
        callers that list the same names in the same order share one index."""
        index = self._index.sub(names)
        return _context(index, _layout(index, entries))

    def canonical(self) -> tuple:
        """Hashable, order-independent form, for memo tables."""
        return tuple(sorted(self.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Context):
            return False
        if self._index is other._index:
            # Chunk tuples compare the chunks two contexts share by identity.
            return self._entries == other._entries
        if len(self) != len(other):
            return False
        for name, entry in self.items():
            if other.get(name) != entry:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __len__(self) -> int:
        return len(self._index.names)

    def __str__(self) -> str:
        return ", ".join(f"{name}: {_entry_text(entry)}" for name, entry in self.items()) or "∅"

    def __repr__(self) -> str:
        return f"Context({dict(self.items())!r})"


def _context(index: _Index, entries: tuple) -> Context:
    """The context over ``index`` whose entries, in the index's layout,
    are ``entries``."""
    g = object.__new__(Context)
    g._index = index
    g._entries = entries
    return g


def _chunked(entries: tuple) -> tuple:
    """``entries`` cut into ``_WIDTH``-wide chunks."""
    return tuple(entries[k : k + _WIDTH] for k in range(0, len(entries), _WIDTH))


def _layout(index: _Index, entries: tuple) -> tuple:
    """``entries``, one per name of ``index`` in order, in its layout."""
    return _chunked(entries) if index.deep else entries


def _flat(g: Context) -> Iterable[Entry]:
    """The entries of ``g`` in order."""
    if g._index.deep:
        return itertools.chain.from_iterable(g._entries)
    return g._entries


def context_equal(g1: Context, g2: Context) -> bool:
    """Entrywise equality up to equi-recursive type equality."""
    if g1._index is g2._index:
        if not g1._index.deep:
            return all(map(entry_equal, g1._entries, g2._entries))
        return all(
            c1 is c2 or all(map(entry_equal, c1, c2)) for c1, c2 in zip(g1._entries, g2._entries)
        )
    if g1.names() != g2.names():
        return False
    return all(entry_equal(e, g2.get(name)) for name, e in g1.items())


# The oracle reads the same map with void-free types as values.
DeclContext = Context


@_memoized
def _entry_text(e: Entry) -> str:
    """The text of ``e``, printed once per entry: a traced run prints the
    same entries in the contexts of all its steps."""
    return render(e)


def context_file_text(g: Context) -> str:
    """Serialize in context-file form (one ``name : entry`` per line)."""
    return "\n".join(f"{name} : {_entry_text(entry)}" for name, entry in g.items())


def pretty(value) -> str:
    """Concrete syntax for a process, type, entry or context.

    Parsing the result with the matching parser gives the value back;
    contexts print in context-file form (one binding per line).
    """
    if isinstance(value, Context):
        return context_file_text(value)
    return str(value)


def to_decl_context(g: Context) -> DeclContext:
    """Strict conversion; rejects any context containing a void slot."""
    return g.with_entries(type_of_entry(e) for _, e in g.items())


def decl_to_context(i: DeclContext) -> Context:
    return i.with_entries(entry_of_type(t) for _, t in i.items())


# ---------------------------------------------------------------------------
# safe / un predicates
# ---------------------------------------------------------------------------

@_memoized
def is_safe_entry(e: Entry) -> bool:
    """Well-pairedness of an entry.

    An entry with a void slot is safe; any other entry is safe when its
    type is (``is_safe_type``), so single slots always are.
    """
    return VOID in e.slots or is_safe_type(_used_entry(e))


@_memoized
def is_safe_type(t: Type) -> bool:
    """Well-pairedness of a type; endpoint types are always safe.

    A channel type is safe when one side is ``un end``, or when the two
    sides offer matching receive/send behaviours (payloads equal and safe,
    and for linear sides a safe continuation pair).  Only the outermost
    call is kept: a nested check may rest on pairs merely assumed safe, so
    it runs in ``_safe_chan`` and is not kept.
    """
    return not isinstance(t, ChanType) or _safe_chan(t, frozenset())


def _safe_chan(t: ChanType, assumed: frozenset) -> bool:
    """The coinductive check: a pair under inspection is assumed safe while
    its payloads and continuations are examined."""
    if t in assumed:
        return True
    assumed = assumed | {t}
    if is_un_end(t.left) or is_un_end(t.right):
        return True
    a, b = unfold(t.left), unfold(t.right)
    for one, other in ((a, b), (b, a)):
        match (one.pre, other.pre):
            case (Recv(tp_in, cont_in), Send(tp_out, cont_out)):
                if one.qual is not other.qual or not type_equal(tp_in, tp_out):
                    continue
                if isinstance(tp_in, ChanType) and not _safe_chan(tp_in, assumed):
                    continue
                if one.qual is Qual.UN or _safe_chan(ChanType(cont_in, cont_out), assumed):
                    return True
    return False


def is_safe_context(g: Context) -> bool:
    return all(map(is_safe_entry, _flat(g)))


@_memoized
def is_un_type(t: Union[Type, Void]) -> bool:
    """Unrestrictedness of a type or a slot; ``◦`` is unrestricted."""
    if isinstance(t, ChanType):
        return is_un_type(t.left) and is_un_type(t.right)
    return t is VOID or head_qual(t) is Qual.UN


@_memoized
def is_un_entry(e: Entry) -> bool:
    return all(map(is_un_type, e.slots))


def is_un_context(g: Context) -> bool:
    return all(map(is_un_entry, _flat(g)))


def is_un_decl_context(i: DeclContext) -> bool:
    return all(is_un_type(t) for _, t in i.items())


# ---------------------------------------------------------------------------
# Entry update (⊎ seed: fill a void slot)
# ---------------------------------------------------------------------------

def update_entry(g: Context, x: str, m: Endpoint) -> Context:
    """Replace the void single slot of ``x`` by the endpoint type ``m``.

    Updating any other entry is a contract violation.
    """
    entry = g.get(x)
    if entry is None:
        raise ContextAlgebraError(f"{x} is not in the context")
    if entry != Single(VOID):
        raise ContextAlgebraError(f"slot for {x} is {entry}, not ◦")
    return g.set(x, Single(m))


# ---------------------------------------------------------------------------
# Used closure (▷), used projection, ∇, context update (⊎)
# ---------------------------------------------------------------------------

def _close_item(m1: Item, m2: Item) -> Item:
    if isinstance(m1, Void) and isinstance(m2, Void):
        return VOID
    if isinstance(m1, Void) or isinstance(m2, Void):
        if not isinstance(m1, Void) and head_qual(m1) is Qual.LIN:
            return m1  # lin p ▷ ◦ = lin p
        raise ContextAlgebraError(f"{m1} ▷ {m2} is undefined")
    if not type_equal(m1, m2):
        raise ContextAlgebraError(f"{m1} ▷ {m2} is undefined")
    if head_qual(m1) is Qual.LIN:
        return VOID  # lin p ▷ lin p = ◦
    return m1  # un p ▷ un p = un p


def _slotwise(op, e: Entry, *others: Entry) -> Entry:
    """The entry of ``e``'s shape whose every slot is ``op`` of the slots
    at that place in ``e`` and in ``others``, which have ``e``'s shape."""
    return type(e)(*map(op, e.slots, *(o.slots for o in others)))


def _combine(op, name: str, e1: Entry, e2: Entry) -> Entry:
    """``op`` on the entries of ``name`` in two contexts, of one shape."""
    if type(e1) is not type(e2):
        raise ContextAlgebraError(f"entry shapes for {name} differ: {e1} vs {e2}")
    return op(e1, e2)


def _pointwise(g1: Context, g2: Context, op, what: str) -> Context:
    """Combine two contexts of equal domain entry by entry with ``op``; over
    one index the entries pair up by position."""
    index = g1._index
    if index is g2._index:
        others = _flat(g2)
    elif g1.names() != g2.names():
        raise ContextAlgebraError(f"{what} needs contexts with equal domains")
    else:
        others = map(g2.get, index.names)
    entries = tuple(map(partial(_combine, op), index.names, _flat(g1), others))
    return _context(index, _layout(index, entries))


@_memoized
def _closed(e1: Entry, e2: Entry) -> Entry:
    """``e1 ▷ e2`` for two entries of one shape; undefined, it raises."""
    return _slotwise(_close_item, e1, e2)


def closure(g1: Context, g2: Context) -> Context:
    """``g1 ▷ g2``: what ``g1`` spent to become ``g2``.  Pointwise, partial."""
    return _pointwise(g1, g2, _closed, "closure")


def _used_item(m: Item) -> Endpoint:
    return UN_END if isinstance(m, Void) else m


@_memoized
def _used_entry(e: Entry) -> Type:
    """The type of ``e`` with each void slot read as ``un end``; a pair
    with no void slot is its own type."""
    slots = tuple(map(_used_item, e.slots))
    return ChanType(*slots) if len(slots) == 2 else slots[0]


def used_map(g: Context) -> DeclContext:
    """Project a context to a declarative one; consumed slots become ``un end``."""
    # Entry by entry, so a chunk maps to a chunk.
    index = g._index
    if index.deep:
        return _context(index, tuple(tuple(map(_used_entry, chunk)) for chunk in g._entries))
    return _context(index, tuple(map(_used_entry, g._entries)))


def _nabla_item(m: Item) -> Item:
    if isinstance(m, Void):
        return m
    return VOID if head_qual(m) is Qual.LIN else m


def nabla(g: Context) -> Context:
    """The fully-consumed shape of ``g``: every linear slot set to ◦."""
    return g.with_entries(_slotwise(_nabla_item, e) for e in _flat(g))


def _update_item(m1: Item, m2: Item) -> Item:
    if isinstance(m1, Void):
        return m2
    if isinstance(m2, Void):
        return m1
    if head_qual(m1) is Qual.UN and head_qual(m2) is Qual.UN and type_equal(m1, m2):
        return m2
    raise ContextAlgebraError(f"{m1} ⊎ {m2} is undefined")


def update_context(g1: Context, g2: Context) -> Context:
    """``g1 ⊎ g2``: pointwise combination; linear slots must not collide."""
    return _pointwise(g1, g2, partial(_slotwise, _update_item), "update")
