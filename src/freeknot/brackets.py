"""Formal GF(2) sums of reduced diagrams and the three state-sum invariants.

Values live in three spaces of R2-reduced diagram classes with XOR addition:

* ``knot``  -- one-component classes (the bare circle is a legal element),
* ``link``  -- any component count, classes containing a free loop are zero,
* ``link2`` -- the two-component part of ``link``.

``delta`` splits one crossing into the two-component smoothing and sums over
crossings; ``alex_bracket`` smooths every Gaussian-even crossing and keeps
the one-component states; ``kauffman_bracket`` smooths every
component-parity-even crossing of a two-component diagram and drops states
that acquire a free loop; ``kdelta`` composes the last two linearly.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from .diagrams import (
    BudgetError,
    CanonicalCode,
    CodeError,
    FramedDiagram,
    PAIRING_A,
    PAIRING_B,
    PreconditionError,
    circles,
    component_count,
    remove_vertex,
    renumber,
    splice_out,
    to_framed,
)
from .moves import find_r2, reduce_r2
from .parity import component_parity, gaussian_parity

CTX_KNOT = "knot"
CTX_LINK = "link"
CTX_LINK2 = "link2"

#: the two smoothing selectors: A joins slots (0,1),(2,3); B joins (0,3),(1,2)
SMOOTHING_PAIRINGS = {"A": PAIRING_A, "B": PAIRING_B}

#: most even crossings a state sum smooths (2^20 states): random 24-chord inputs
#: with 20 take 0.2-1.5 s, but distinct states kept cost up to 15 ms each (11 evens)
STATE_SUM_MAX_EVENS = 20


@dataclass(frozen=True)
class FormalSum:
    """GF(2) combination of canonical reduced diagrams: membership in
    ``terms`` is coefficient 1, addition is symmetric difference."""

    terms: frozenset
    context: str
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if validate:
            for t in self.terms:
                _check_member(t, self.context)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __xor__(self, other: "FormalSum") -> "FormalSum":
        if self.context != other.context:
            raise PreconditionError("cannot add sums from different spaces")
        # every term was checked, for this context, when its operand was built
        return FormalSum(self.terms ^ other.terms, self.context, validate=False)

    def sorted_terms(self) -> list[CanonicalCode]:
        return sorted(self.terms)

    def max_term_vertices(self) -> int:
        """Largest vertex count over the support; 0 for the empty sum."""
        return max((t.chord_count for t in self.terms), default=0)


def _check_member(t: CanonicalCode, context: str):
    if not isinstance(t, CanonicalCode):
        raise CodeError("formal sum members must be canonical codes")
    if find_r2(to_framed(t)):
        raise CodeError(f"member {t} is not R2-irreducible")
    if context == CTX_KNOT:
        if t.component_count != 1:
            raise CodeError(f"member {t} of a knot sum must have one component")
    elif context in (CTX_LINK, CTX_LINK2):
        if t.free_loops:
            raise CodeError(f"member {t} contains a free loop")
        if context == CTX_LINK2 and t.component_count != 2:
            raise CodeError(f"member {t} must have two components")
    else:
        raise CodeError(f"unknown context {context!r}")


def formal_sum(context: str, terms=()) -> FormalSum:
    return FormalSum(frozenset(terms), context)


# ---------------------------------------------------------------------------
# Smoothing


def resolve(d: FramedDiagram, choices: dict) -> FramedDiagram:
    """Smooth several vertices simultaneously (vertex -> 'A'/'B'): delete
    each and repaste its half-edges per its choice; the rest of the diagram
    is untouched, and closing splices become free loops."""
    repairings = {}
    for v, choice in choices.items():
        if choice not in SMOOTHING_PAIRINGS:
            raise CodeError(f"smoothing choice must be 'A' or 'B', got {choice!r}")
        repairings[v] = SMOOTHING_PAIRINGS[choice]
    return splice_out(d, repairings)


def _framed(code, n: int, what: str) -> FramedDiagram:
    """The framed graph of ``code``, which must have ``n`` components."""
    d = to_framed(code)
    k = component_count(d)
    if k != n:
        raise PreconditionError(f"{what} requires {n} unicursal component(s), found {k}")
    return d


# ---------------------------------------------------------------------------
# The invariants


def split_smoothing(d: FramedDiagram, v) -> FramedDiagram:
    """The unique smoothing of a one-component diagram at ``v`` that yields
    two components (same-circle chords split into n or n+1 components, so
    exactly one choice qualifies)."""
    n = component_count(d)
    results = [splice_out(d, {v: pairing}) for pairing in (PAIRING_A, PAIRING_B)]
    hits = [r for r in results if component_count(r) == n + 1]
    if len(hits) != 1:
        raise CodeError(f"expected exactly one splitting smoothing at {v!r}, got {len(hits)}")
    return hits[0]


def delta_terms(code) -> list[tuple]:
    """Per-crossing raw summands of ``delta`` before cancellation: a list of
    (vertex, reduced canonical code, saw_free_loop)."""
    d = _framed(code, 1, "delta")
    out = []
    for v in d.vertices():
        term = split_smoothing(d, v)
        reduced, saw = reduce_r2(term)
        out.append((v, reduced, saw))
    return out


def delta(code) -> FormalSum:
    """Sum over crossings of the two-component smoothing, in ``link2``.

    Delta is a move invariant with values in GF(2) sums of free
    two-component links up to all three moves, where a link that moves to
    one with a free loop is zero.  The returned support lists one
    R2-reduced representative per term, which is not canonical in that
    space: a kink added to a split component changes the term's R2-class,
    so the support itself is only stable under parallel-pattern second
    moves.  Two supports are equal as invariants when their difference
    cancels by moves; the composition ``kdelta`` reads them through the
    two-component bracket, a full move invariant, and so is compared by
    equality."""
    support: set = set()
    for _, reduced, saw in delta_terms(code):
        if saw:
            continue
        support ^= {reduced}
    return formal_sum(CTX_LINK2, support)


def _smoothings(mate: list, evens: range, loops: int, max_loops: int):
    """Yield ``(mate, loops)`` for every smoothing of the vertices ``evens``
    of a matching that ends with at most ``max_loops`` free loops.  Vertices
    are smoothed depth first, each on a copy of its parent's matching; a
    branch is cut at its first excess loop, as smoothing never touches a
    circle that has no crossings on it, so free loops are permanent."""
    stack = [(mate, 0, loops)] if loops <= max_loops else []
    while stack:
        m, depth, loops = stack.pop()
        if depth == len(evens):
            yield m, loops
            continue
        for pairing in (PAIRING_A, PAIRING_B):
            child = m[:]
            closed = loops + remove_vertex(child, evens[depth], pairing)
            if closed <= max_loops:
                stack.append((child, depth + 1, closed))


def _state_sum(d: FramedDiagram, even_vertices: list, knot: bool) -> set:
    """XOR of reduced states over all smoothings of ``even_vertices``.

    ``knot`` keeps the one-component states (``alex_bracket``); otherwise a
    state is dropped once it carries a free loop, before or during its
    reduction (``kauffman_bracket``).  Branches that can only lead to
    dropped states are cut before they are built, equal states cancel in
    pairs, and a ``FramedDiagram`` is built only for the rest.  Over
    budget, none is built."""
    if len(even_vertices) > STATE_SUM_MAX_EVENS:
        raise BudgetError(f"{len(even_vertices)} even crossings; "
                          f"state sums stop at {STATE_SUM_MAX_EVENS}")
    # the vertices left unsmoothed come first, so a state is a prefix of the matching
    evens = set(even_vertices)
    order = sorted(range(d.vertex_count), key=lambda i: d.labels[i] in evens)
    mate = renumber(d.mate, order)
    labels = tuple(d.labels[i] for i in order)
    live = len(labels) - len(evens)
    # an unsmoothed crossing lies on a circle, and a knot state keeps one
    # component, so it may gain a free loop only when every crossing is smoothed
    max_loops = 1 if knot and not live else 0
    odd: set = set()
    for m, loops in _smoothings(mate, range(live, len(labels)), d.free_loops, max_loops):
        state = tuple(m[:4 * live])
        if not knot or loops + len(circles(state)) == 1:
            odd ^= {(state, loops)}
    support: set = set()
    for m, loops in odd:
        reduced, saw = reduce_r2(FramedDiagram(labels[:live], list(m), loops, validate=False))
        if knot or not saw:
            support ^= {reduced}
    return support


def alex_bracket(code) -> FormalSum:
    """Smooth all Gaussian-even crossings, keep one-component states, reduce;
    valued in ``knot``.  With every crossing odd the sum is the single term
    given by reducing the diagram itself.  Budget: ``STATE_SUM_MAX_EVENS``."""
    d = _framed(code, 1, "alex_bracket")
    par = gaussian_parity(d)
    evens = sorted((v for v in d.vertices() if not par.is_odd(v)), key=str)
    support = _state_sum(d, evens, knot=True)
    return formal_sum(CTX_KNOT, support)


def kauffman_bracket(code) -> FormalSum:
    """Smooth all component-parity-even crossings of a two-component
    diagram; every state is kept unless it acquires a free loop; valued in
    ``link``.  Budget: ``STATE_SUM_MAX_EVENS``."""
    d = _framed(code, 2, "kauffman_bracket")
    par = component_parity(d)
    evens = sorted((v for v in d.vertices() if not par.is_odd(v)), key=str)
    support = _state_sum(d, evens, knot=False)
    return formal_sum(CTX_LINK, support)


def kdelta(code) -> FormalSum:
    """Linear extension of the two-component bracket along ``delta``:
    XOR of ``kauffman_bracket`` over the delta terms, in ``link``."""
    d = _framed(code, 1, "kdelta")
    total = formal_sum(CTX_LINK)
    for term in delta(d).terms:
        total ^= kauffman_bracket(term)
    return total
