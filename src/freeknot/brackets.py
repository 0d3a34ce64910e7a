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

The three brackets are invariant under all three moves, so each first
deletes every kink and bigon of its input (``moves._untangle``) and sums
what is left; ``kdelta`` deletes them from the knot before it splits it.
The deletions keep the parity of every kept chord, so the parities are
read off the smaller diagram, and the budget counts its even crossings.
``delta`` and each state are reduced by the second move only: delta's
support is not move-invariant, and a state's kinks are part of its term.

The sums work on the integer matching of the framed graph.  Knot and link
sums alike smooth one even crossing at a time over a whole level of partial
states, kept mod 2, so that equal partial states cancel before they are
expanded.  The crossings go in a frontier order, which keeps few edges
between the smoothed and the unsmoothed part; the states of a level differ
only in how the smoothed part joins those edges, so the level stays narrow.
Each surviving state is R2-reduced in place by ``moves._reduce``, and so is
each split of ``delta``, whose smoothing is picked by one walk of its circle;
a reduced term carries a free loop when its canonical code does.
``_reduce`` and ``_untangle`` are one in-place pass, ``moves._decrease``,
which deletes bigons, and kinks only for ``_untangle``.
"""

from __future__ import annotations

from collections import namedtuple

from .diagrams import (
    BudgetError,
    CanonicalCode,
    CodeError,
    FramedDiagram,
    PAIRING_A,
    PAIRING_B,
    PreconditionError,
    component_count,
    remove_vertex,
    renumber,
    splice_out,
    to_framed,
)
from .moves import _reduce, _untangle, find_r2
from .parity import component_parity, gaussian_parity

CTX_KNOT = "knot"
CTX_LINK = "link"
CTX_LINK2 = "link2"

#: the two smoothing selectors: A joins slots (0,1),(2,3); B joins (0,3),(1,2)
SMOOTHING_PAIRINGS = {"A": PAIRING_A, "B": PAIRING_B}

#: most even crossings a state sum smooths (2^20 states), counted once every
#: kink and bigon is deleted.  Seeded random kink- and bigon-free 24-chord
#: inputs with 20 take at most 0.05 s for either bracket, with at most 3,332
#: states in a level.  Odd crossings widen the levels, as their edges stay
#: cut: 40 seeded 26-chord knots with 17-20 even crossings left take up to
#: 1.5 s each and hold up to 83,072 states in a level (2 shared vCPUs).
#: A sum whose states are all distinct and loop-free pays one reduction per state
STATE_SUM_MAX_EVENS = 20


class FormalSum(namedtuple("FormalSum", "terms context")):
    """GF(2) combination of canonical reduced diagrams: membership in the
    frozenset ``terms`` is coefficient 1, addition is symmetric difference.
    A named tuple.  The constructor checks the context, the type of
    ``terms`` and every member; the invariants build their sums with
    ``_make``, which skips the checks, as their terms are R2-reduced
    canonical codes (``moves._reduce``) already filtered for the context."""

    __slots__ = ()

    def __new__(cls, terms: frozenset, context: str):
        if context not in (CTX_KNOT, CTX_LINK, CTX_LINK2):
            raise CodeError(f"unknown context {context!r}")
        if type(terms) is not frozenset:
            raise CodeError("formal sum terms must be a frozenset")
        for t in terms:
            _check_member(t, context)
        return super().__new__(cls, terms, context)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __xor__(self, other: "FormalSum") -> "FormalSum":
        if self.context != other.context:
            raise PreconditionError("cannot add sums from different spaces")
        # every term was checked, for this context, when its operand was built
        return FormalSum._make((self.terms ^ other.terms, self.context))

    def sorted_terms(self) -> list[CanonicalCode]:
        return sorted(self.terms)


def _check_member(t: CanonicalCode, context: str):
    if not isinstance(t, CanonicalCode):
        raise CodeError("formal sum members must be canonical codes")
    if find_r2(to_framed(t)):
        raise CodeError(f"member {t} is not R2-irreducible")
    if context == CTX_KNOT:
        if t.component_count != 1:
            raise CodeError(f"member {t} of a knot sum must have one component")
    elif t.free_loops:
        raise CodeError(f"member {t} contains a free loop")
    elif context == CTX_LINK2 and t.component_count != 2:
        raise CodeError(f"member {t} must have two components")


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


def _split_pairing(mate: list, i: int):
    """The smoothing of vertex ``i`` of an integer matching that splits its
    circle in two, or None when its two passages lie on two circles.  The
    walk out of slot 2 comes back to ``i`` at the slot where the other
    passage enters (or at slot 0, on two circles); joining those two slots
    closes the arc between them, and the pairing that does so splits."""
    g = mate[4 * i + 2]
    while g >> 2 != i:
        g = mate[g ^ 2]
    if g & 3 == 0:
        return None
    return PAIRING_A if g & 3 == 3 else PAIRING_B


def split_smoothing(d: FramedDiagram, v) -> FramedDiagram:
    """The unique smoothing of a diagram at ``v`` that yields one component
    more (a same-circle chord's two smoothings give n or n+1 components, so
    exactly one choice qualifies)."""
    pairing = _split_pairing(d.mate, d.index(v))
    if pairing is None:
        raise CodeError(f"expected exactly one splitting smoothing at {v!r}, got 0")
    return splice_out(d, {v: pairing})


def delta_terms(code) -> list[tuple]:
    """Per-crossing raw summands of ``delta`` before cancellation: a list of
    (vertex, reduced canonical code, saw_free_loop)."""
    d = _framed(code, 1, "delta")
    out = []
    for i, v in enumerate(d.labels):
        mate = d.mate[:]
        reduced = _reduce(mate, d.free_loops + remove_vertex(mate, i, _split_pairing(d.mate, i)))
        out.append((v, reduced, reduced.free_loops > 0))
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
    equality.  For the same reason ``delta`` sums its input as it is, kinks
    and bigons included: ``"a a b c c b"`` has the term ``"a a | b b"``,
    which ``"b c c b"``, the same free knot without the kink ``a``, lacks."""
    support: set = set()
    for _, reduced, saw in delta_terms(code):
        if saw:
            continue
        support ^= {reduced}
    return FormalSum._make((frozenset(support), CTX_LINK2))


def _frontier(mate: list, evens: list) -> list:
    """The vertices ``evens`` in the order a state sum smooths them.  Next
    comes the one that leaves the fewest edges between smoothed and
    unsmoothed vertices, the lower number on a tie (Bar-Natan's frontier
    order); the other vertices count as unsmoothed."""
    smoothed = [False] * (len(mate) >> 2)
    order, rest = [], sorted(evens)
    while rest:
        # an edge to an unsmoothed vertex joins the cut, one to a smoothed vertex leaves it
        v = min(rest, key=lambda u: sum(-1 if smoothed[g >> 2] else 1
                                        for g in mate[4 * u:4 * u + 4] if g >> 2 != u))
        rest.remove(v)
        smoothed[v] = True
        order.append(v)
    return order


def _levels(mate: list, live: int, loops: int, max_loops: int) -> set:
    """``(mate, loops)`` for the smoothings of the vertices numbered
    ``live`` and up of a matching that carry at most ``max_loops`` free
    loops, each of odd multiplicity: the rest cancel in pairs.  Vertices
    are smoothed from the highest number down, one level at a time; once
    ``v`` is smoothed no slot below ``4 * v`` points at a smoothed vertex,
    so a partial state is its matching's prefix up to ``v``.  A level keeps
    its partial states by XOR: two equal ones have identical subtrees, so
    they cancel before either is expanded.  A state is dropped at its first
    excess loop, as smoothing never touches a circle without crossings."""
    # a state takes one byte per slot where every slot number fits, not a tuple's eight
    pack = bytes if len(mate) <= 256 else tuple
    level = {(pack(mate), loops)} if loops <= max_loops else set()
    for v in reversed(range(live, len(mate) >> 2)):
        below: set = set()
        for m, loops in level:
            for pairing in (PAIRING_A, PAIRING_B):
                child = list(m)
                closed = loops + remove_vertex(child, v, pairing)
                if closed <= max_loops:
                    below ^= {(pack(child[:4 * v]), closed)}
        level = below
    return level


def _one_circle(state) -> bool:
    """Whether a matching is one circle: the walk from half-edge 0 passes
    every vertex twice."""
    h, steps = state[2], 1
    while h:
        h, steps = state[h ^ 2], steps + 1
    return 2 * steps == len(state)


def _state_sum(d: FramedDiagram, odd: frozenset, knot: bool) -> set:
    """XOR of reduced states over all smoothings of the vertices not in
    ``odd``, the even ones.

    ``knot`` keeps the one-component states (``alex_bracket``); otherwise a
    state is dropped once it carries a free loop, before or during its
    reduction (``kauffman_bracket``).  Branches that can only lead to
    dropped states are cut before they are built, equal states cancel in
    pairs, and only the rest are reduced, each on its integer matching.
    Over budget, no state is built.  The brackets pass ``d`` with every kink
    and bigon deleted, so the budget counts the even crossings left, and
    each one deleted halves the states; a state keeps its kinks, as they
    are part of its term, and is reduced by the second move only.

    Knot and link sums take one walk, ``_levels``, in the order of
    ``_frontier``; they differ only in the loops a partial state may carry
    and in the filter on the last level.  A level is held whole: on the 40
    knots of ``STATE_SUM_MAX_EVENS`` the process peaks at 47 MB, against
    35 MB for a depth-first walk that holds one matching per depth
    (``tests/oracles.py::dfs_state_sum``) and takes 4 times as long."""
    live = [i for i, v in enumerate(d.labels) if v in odd]
    evens = [i for i, v in enumerate(d.labels) if v not in odd]
    if len(evens) > STATE_SUM_MAX_EVENS:
        raise BudgetError(f"{len(evens)} even crossings; "
                          f"state sums stop at {STATE_SUM_MAX_EVENS}")
    # the odd vertices stay unsmoothed and come first; the evens follow in
    # reverse frontier order, as ``_levels`` smooths the highest number first
    order = live + _frontier(d.mate, evens)[::-1]
    # an unsmoothed crossing lies on a circle, and a knot state keeps one
    # component, so it may gain a free loop only when every crossing is smoothed
    states = _levels(renumber(d.mate, order), len(live), d.free_loops, 0 if live or not knot else 1)
    support: set = set()
    for state, loops in states:
        if knot and not (_one_circle(state) if live else loops == 1):
            continue
        reduced = _reduce(list(state), loops)
        if knot or not reduced.free_loops:
            support ^= {reduced}
    return support


def alex_bracket(code) -> FormalSum:
    """Smooth all Gaussian-even crossings, keep one-component states, reduce;
    valued in ``knot``.  With every crossing odd the sum is the single term
    given by reducing the diagram itself.  Summed once every kink and bigon
    is deleted.  Budget: ``STATE_SUM_MAX_EVENS``."""
    d = _untangle(_framed(code, 1, "alex_bracket"))
    support = _state_sum(d, gaussian_parity(d).odd, knot=True)
    return FormalSum._make((frozenset(support), CTX_KNOT))


def kauffman_bracket(code) -> FormalSum:
    """Smooth all component-parity-even crossings of a two-component
    diagram; every state is kept unless it acquires a free loop; valued in
    ``link``.  Summed once every kink and bigon is deleted.  Budget:
    ``STATE_SUM_MAX_EVENS``."""
    d = _untangle(_framed(code, 2, "kauffman_bracket"))
    support = _state_sum(d, component_parity(d).odd, knot=False)
    return FormalSum._make((frozenset(support), CTX_LINK))


def kdelta(code) -> FormalSum:
    """Linear extension of the two-component bracket along ``delta``:
    XOR of ``kauffman_bracket`` over the delta terms, in ``link``.  The
    knot's kinks and bigons are deleted before it is split, which may
    change the terms but not the sum of their brackets."""
    d = _untangle(_framed(code, 1, "kdelta"))
    total = formal_sum(CTX_LINK)
    for term in delta(d).terms:
        total ^= kauffman_bracket(term)
    return total
