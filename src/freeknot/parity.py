"""Chord interlacement, parity rules, and source-sink orientability.

Two parity rules are implemented.  Gaussian parity (one-component diagrams):
a chord is odd iff it interlaces an odd number of other chords.  Component
parity (two-component diagrams): a crossing is odd iff its two passages lie
on different components.  Both satisfy the move axioms checked by
``check_parity_axioms``.

Interlacement, both rules and irreducible oddness come from one pass over
the circles in turn, a bit per chord.  A running XOR of the chords met once,
taken at both ends of a chord, gives the chords with one end between them:
its neighbours on one circle; chords still open at a circle's end span two.
A framed graph is read by vertex number; no Gauss code is rebuilt from it.
Source-sink orientability comes from the same circles: a bit per circle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import moves as _moves
from .diagrams import (
    CodeError,
    FramedDiagram,
    PreconditionError,
    as_code,
    circles,
    to_framed,
)

GAUSSIAN = "gaussian"
COMPONENT = "component"


@dataclass(frozen=True)
class InterlacementGraph:
    """Simple graph on chord labels, checked when built; edge iff the
    endpoints of the two chords alternate around a common circle."""

    vertices: tuple
    edges: frozenset  # of 2-element frozensets

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) < len(self.vertices) or type(self.edges) is not frozenset or not all(
                type(e) is frozenset and len(e) == 2 and e <= vs for e in self.edges):
            raise CodeError("interlacement graph needs distinct vertices and edges of two of them")

    def degree(self, x) -> int:
        return sum(1 for e in self.edges if x in e)

    def neighbor_sets(self) -> dict:
        out = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = tuple(e)
            out[a].add(b)
            out[b].add(a)
        return out

    def to_dot(self) -> str:
        lines = ["graph interlacement {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a, b in sorted(tuple(sorted(e, key=str)) for e in self.edges):
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines)


def _chords(code, components: int = 0, wrong: str = "") -> tuple:
    """The chord labels in order of first occurrence, each chord's
    neighbours as a bit mask over that order, and the mask of the chords on
    two circles.  With ``wrong`` set, a diagram without ``components``
    components raises ``PreconditionError(wrong)``."""
    if isinstance(code, FramedDiagram):
        words = [[h >> 2 for h in seq] for seq in circles(code.mate)]
        names, count = code.labels, len(words) + code.free_loops
    else:
        code = as_code(code)
        words, names, count = code.words, None, code.component_count
    if wrong and count != components:
        raise PreconditionError(wrong)
    index: dict = {}  # chord -> its bit
    nbr: list = []
    run = spanning = 0
    for w in words:
        for x in w:
            i = index.get(x)
            if i is None:  # its first end: keep the XOR just after it
                i = index[x] = len(nbr)
                nbr.append(run ^ 1 << i)
            else:  # its second: the chords met once between its ends
                nbr[i] ^= run
            run ^= 1 << i
        spanning |= run
    labels = list(index) if names is None else [names[v] for v in index]
    return labels, [0 if spanning >> i & 1 else m & ~spanning for i, m in enumerate(nbr)], spanning


def interlacement(code) -> InterlacementGraph:
    """Edges join chords whose endpoints alternate on one circle; chords
    spanning two circles interlace nothing."""
    labels, nbr, _ = _chords(code)
    edges = frozenset(frozenset((labels[i], labels[j]))
                      for i, m in enumerate(nbr) for j in range(i) if m >> j & 1)
    return InterlacementGraph(tuple(sorted(labels, key=str)), edges)


@dataclass(frozen=True)
class ParityAssignment:
    """Total odd/even marking of a diagram's chords under one rule."""

    rule: str
    odd: frozenset
    chords: tuple

    def is_odd(self, label) -> bool:
        return label in self.odd

    def all_even(self) -> bool:
        return not self.odd

    def all_odd(self) -> bool:
        return len(self.odd) == len(self.chords)


def gaussian_parity(code) -> ParityAssignment:
    """Odd = odd interlacement degree.  One-component diagrams only."""
    labels, nbr, _ = _chords(code, 1, "gaussian parity requires exactly one component")
    odd = frozenset(x for x, m in zip(labels, nbr) if m.bit_count() & 1)
    return ParityAssignment(GAUSSIAN, odd, tuple(sorted(labels, key=str)))


def component_parity(code) -> ParityAssignment:
    """Odd = endpoints on different components.  Two-component diagrams."""
    labels, _, spanning = _chords(code, 2, "component parity requires exactly two components")
    odd = frozenset(x for i, x in enumerate(labels) if spanning >> i & 1)
    return ParityAssignment(COMPONENT, odd, tuple(sorted(labels, key=str)))


def parity(code, rule: str) -> ParityAssignment:
    if rule == GAUSSIAN:
        return gaussian_parity(code)
    if rule == COMPONENT:
        return component_parity(code)
    raise PreconditionError(f"unknown parity rule {rule!r}")


# ---------------------------------------------------------------------------
# Source-sink orientability


def source_sink_orientable(d) -> bool:
    """True iff the edges can be directed so that at every vertex one
    opposite pair points in and the other out; free loops are vacuously
    orientable.  A passage enters and leaves through one opposite pair,
    which points in or out as a whole, so along a circle the edges point
    alternately with and against the walk: every circle has even length and
    one phase bit fixes its edges.  The two passages of a vertex, at
    positions p1 and p2 of circles c1 and c2, differ, so
    phase(c1) ^ phase(c2) = 1 ^ ((p1 ^ p2) & 1)."""
    seqs = circles(to_framed(d).mate)
    first: dict = {}  # vertex -> (circle, position) of its first passage
    rel: list = [[] for _ in seqs]  # circle -> [(circle, phase difference)]
    for c, seq in enumerate(seqs):
        if len(seq) & 1:
            return False
        for p, h in enumerate(seq):
            c1, p1 = first.setdefault(h >> 2, (c, p))
            if (c1, p1) != (c, p):  # the vertex's second passage
                rel[c1].append((c, (p1 ^ p ^ 1) & 1))
                rel[c].append((c1, (p1 ^ p ^ 1) & 1))
    phase: list = [None] * len(seqs)
    for start in range(len(seqs)):
        stack = [(start, 0)] if phase[start] is None else []
        while stack:
            c, x = stack.pop()
            if phase[c] is None:
                phase[c] = x
                stack.extend((f, x ^ r) for f, r in rel[c])
            elif phase[c] != x:
                return False
    return True


def is_irreducibly_odd(code) -> bool:
    """All chords Gaussian-odd and every chord pair distinguished by a third
    chord's interlacement."""
    _, nbr, _ = _chords(code, 1, "irreducible oddness requires one component")
    # no third chord tells a from b iff N(a) = N(b), or N(a) + a = N(b) + b
    closed = {m | 1 << i for i, m in enumerate(nbr)}
    return all(m.bit_count() & 1 for m in nbr) and len(set(nbr)) == len(closed) == len(nbr)


# ---------------------------------------------------------------------------
# Move axioms


def _parity_map(d: FramedDiagram, rule: str) -> dict:
    p = parity(d, rule)
    return {lab: p.is_odd(lab) for lab in p.chords}


def check_parity_axioms(d: FramedDiagram, m: _moves.MoveInstance, rule: str) -> list[str]:
    """Verify the move axioms for one concrete instance; returns the list of
    violations (empty = pass).

    R1 crossings are even and spectators keep their parity; R2 pairs are
    equal-parity with spectators preserved; R3 preserves each corner's
    parity, spectators, and has an even number of odd corners.  Public, so
    that a parity rule can be checked at any move; the acceptance tests run
    it on every move of the small classes."""
    before = _parity_map(d, rule)
    after_d = _moves.apply_move(d, m)
    after = _parity_map(after_d, rule)
    report: list[str] = []

    site = set(m.vertices)
    new_vertices = set(after) - set(before)
    for v in sorted(set(before) & set(after) - site, key=str):
        if before[v] != after[v]:
            report.append(f"spectator {v!r} changed parity")

    kind = m.kind
    if kind == _moves.R1_DOWN:
        (v,) = m.vertices
        if before[v]:
            report.append(f"R1 crossing {v!r} is odd")
    elif kind == _moves.R1_UP:
        for v in sorted(new_vertices, key=str):
            if after[v]:
                report.append(f"added R1 crossing {v!r} is odd")
    elif kind == _moves.R2_DOWN:
        u, v = m.vertices
        if before[u] != before[v]:
            report.append(f"R2 pair {u!r},{v!r} has mixed parity")
    elif kind == _moves.R2_UP:
        pair = sorted(new_vertices, key=str)
        if len(pair) == 2 and after[pair[0]] != after[pair[1]]:
            report.append(f"added R2 pair {pair[0]!r},{pair[1]!r} has mixed parity")
    elif kind == _moves.R3:
        odd_count = 0
        for v in m.vertices:
            if before[v] != after[v]:
                report.append(f"R3 corner {v!r} changed parity")
            odd_count += before[v]
        if odd_count not in (0, 2):
            report.append(f"R3 triangle has {odd_count} odd corners")
    return report
