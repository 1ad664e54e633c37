"""Input generators owned by the benchmark.

The criterion-4 process enumerator and the criterion-7 retyping search are
copied here from the acceptance suite and its helpers, built only from
public ``sessionpi`` functions, so that rewriting the test helpers cannot
change what the benchmark measures.

Every function takes the imported ``sessionpi`` package as ``sp``: the
benchmark re-imports the library several times to time its set-up, and
calls go through the package namespace so the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools

# The six-type universe of criterion 4, as source text.
UNIVERSE_TEXT = (
    "un end",
    "lin !(un end).un end",
    "lin ?(un end).un end",
    "<lin ?(un end).un end, lin !(un end).un end>",
    "<rec a. un ?(un end).a, rec b. un !(un end).b>",
    "<un end, un end>",
)
# Two-name contexts of criterion 4, as index pairs into the universe.
PAIR_CONTEXTS = ((3, 0), (4, 0), (1, 2), (4, 5), (5, 0))
BINDERS = ("u", "w")


def universe(sp) -> list:
    return [sp.parse_type(text) for text in UNIVERSE_TEXT]


def differential_contexts(sp, u6: list) -> list:
    """The 11 contexts of criterion 4: six one-name, five two-name."""
    contexts = [sp.Context([("x", sp.entry_of_type(t))]) for t in u6]
    for a, b in PAIR_CONTEXTS:
        contexts.append(
            sp.Context([("x", sp.entry_of_type(u6[a])), ("y", sp.entry_of_type(u6[b]))])
        )
    return contexts


def exhaustive_procs(sp, u6: list, size: int, names: tuple, depth: int = 0):
    """Every process of at most ``size`` constructors over ``names``, with
    at most two nested binders drawn from ``BINDERS`` and restriction
    annotations from the universe (72,790 processes for size 5)."""
    if size >= 1:
        yield sp.Zero()
    if size >= 2:
        for cont in exhaustive_procs(sp, u6, size - 1, names, depth):
            yield sp.Repl(cont)
        for chan in names:
            for arg in names:
                for cont in exhaustive_procs(sp, u6, size - 1, names, depth):
                    yield sp.Output(chan, arg, cont)
        if depth < len(BINDERS):
            binder = BINDERS[depth]
            extended = names + (binder,)
            for chan in names:
                for cont in exhaustive_procs(sp, u6, size - 1, extended, depth + 1):
                    yield sp.Input(chan, binder, cont)
            for annot in u6:
                for cont in exhaustive_procs(sp, u6, size - 1, extended, depth + 1):
                    yield sp.New(binder, annot, cont)
    if size >= 3:
        for k in range(1, size - 1):
            for left in exhaustive_procs(sp, u6, k, names, depth):
                for right in exhaustive_procs(sp, u6, size - 1 - k, names, depth):
                    yield sp.Par(left, right)


def has_void(sp, ctx) -> bool:
    return any(
        isinstance(slot, sp.Void)
        for _, entry in ctx.items()
        for slot in ((entry.item,) if isinstance(entry, sp.Single) else (entry.left, entry.right))
    )


# ---------------------------------------------------------------------------
# Retyping search (criterion 7)
# ---------------------------------------------------------------------------

def advancement_candidates(sp, t, max_steps: int = 3) -> list:
    """The type plus its first few one-communication advancements."""
    out = [t]
    current = t
    for _ in range(max_steps):
        stepped = sp.semantics.advance_type(current)
        if stepped == current or stepped in out:
            break
        out.append(stepped)
        current = stepped
    return out


def find_retyping(sp, decl, reduct, max_steps: int = 3, bound: int = 200_000):
    """Search safe same-domain contexts (entrywise advancements of ``decl``)
    for one that makes ``reduct`` derivable.

    Returns (context, result) on success and (None, result-or-None)
    otherwise; an INCONCLUSIVE oracle result is passed through.  The last
    element is the list of oracle results of every query made.
    """
    names = sorted(decl.names())
    per_name = [advancement_candidates(sp, decl.get(name), max_steps) for name in names]
    renamed = sp.barendregt_rename(reduct, avoid=decl.names())
    combos = sorted(itertools.product(*(range(len(c)) for c in per_name)), key=sum)
    queries = []
    saw_inconclusive = None
    for combo in combos:
        candidate = sp.DeclContext(
            (name, per_name[k][idx]) for k, (name, idx) in enumerate(zip(names, combo))
        )
        if not all(sp.is_safe_type(t) for _, t in candidate.items()):
            continue
        result = sp.derivable(candidate, renamed, bound=bound)
        queries.append(result)
        if result.verdict is sp.Verdict.DERIVABLE:
            return candidate, result, queries
        if result.verdict is sp.Verdict.INCONCLUSIVE:
            saw_inconclusive = result
    return None, saw_inconclusive, queries
