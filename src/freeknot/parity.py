"""Chord interlacement, parity rules, and source-sink orientability.

Two parity rules are implemented.  Gaussian parity (one-component diagrams):
a chord is odd iff it interlaces an odd number of other chords.  Component
parity (two-component diagrams): a crossing is odd iff its two passages lie
on different components.  Both satisfy the move axioms checked by
``check_parity_axioms``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import moves as _moves
from .diagrams import (
    FramedDiagram,
    PreconditionError,
    as_code,
)

GAUSSIAN = "gaussian"
COMPONENT = "component"


@dataclass(frozen=True)
class InterlacementGraph:
    """Simple graph on chord labels; edge iff the endpoints of the two
    chords alternate around a common circle."""

    vertices: tuple
    edges: frozenset  # of 2-element frozensets

    def adjacent(self, x, y) -> bool:
        return frozenset((x, y)) in self.edges

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


def interlacement(code) -> InterlacementGraph:
    """Edges join chords whose endpoints alternate on one circle; chords
    spanning two circles interlace nothing."""
    code = as_code(code)
    pos: dict = {}
    for wi, w in enumerate(code.words):
        for i, lab in enumerate(w):
            pos.setdefault(lab, []).append((wi, i))
    labels = sorted(pos, key=str)
    edges = set()
    for x, y in itertools.combinations(labels, 2):
        (wx1, i1), (wx2, i2) = pos[x]
        if wx1 != wx2:
            continue
        (wy1, j1), (wy2, j2) = pos[y]
        if wy1 != wy2 or wy1 != wx1:
            continue
        length = len(code.words[wx1])
        span = (i2 - i1) % length
        inside = sum(1 for j in (j1, j2) if 0 < (j - i1) % length < span)
        if inside == 1:
            edges.add(frozenset((x, y)))
    return InterlacementGraph(tuple(labels), frozenset(edges))


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
    code = as_code(code)
    if code.component_count != 1:
        raise PreconditionError("gaussian parity requires exactly one component")
    g = interlacement(code)
    odd = frozenset(v for v in g.vertices if g.degree(v) % 2 == 1)
    return ParityAssignment(GAUSSIAN, odd, g.vertices)


def component_parity(code) -> ParityAssignment:
    """Odd = endpoints on different components.  Two-component diagrams."""
    code = as_code(code)
    if code.component_count != 2:
        raise PreconditionError("component parity requires exactly two components")
    word_of: dict = {}
    odd = set()
    labels = []
    for wi, w in enumerate(code.words):
        for lab in w:
            if lab in word_of:
                if word_of[lab] != wi:
                    odd.add(lab)
            else:
                word_of[lab] = wi
                labels.append(lab)
    return ParityAssignment(COMPONENT, frozenset(odd), tuple(sorted(labels, key=str)))


def parity(code, rule: str) -> ParityAssignment:
    if rule == GAUSSIAN:
        return gaussian_parity(code)
    if rule == COMPONENT:
        return component_parity(code)
    raise PreconditionError(f"unknown parity rule {rule!r}")


# ---------------------------------------------------------------------------
# Source-sink orientability


def source_sink_orientable(d: FramedDiagram) -> bool:
    """True iff the edges can be directed so that at every vertex one
    opposite pair points in and the other points out.  Decided by parity
    propagation over the edge-direction variables; free loops are vacuously
    orientable."""
    mate = d.mate
    # edge e is named by its lesser half-edge; its end h points into its
    # vertex iff x_e XOR (h is the greater end).  Constraints: x_e1 ^ x_e2 = rhs
    adj: dict = {min(h, g): [] for h, g in enumerate(mate)}
    for v in range(0, len(mate), 4):
        for h1, h2, flip in ((v, v + 2, 0), (v + 1, v + 3, 0), (v, v + 1, 1)):
            e1, e2 = min(h1, mate[h1]), min(h2, mate[h2])
            rhs = (h1 > mate[h1]) ^ (h2 > mate[h2]) ^ flip
            if e1 == e2:
                if rhs != 0:
                    return False
                continue
            adj[e1].append((e2, rhs))
            adj[e2].append((e1, rhs))

    value: dict = {}
    for start in adj:
        if start in value:
            continue
        value[start] = 0
        stack = [start]
        while stack:
            e = stack.pop()
            for f, rhs in adj[e]:
                want = value[e] ^ rhs
                if f in value:
                    if value[f] != want:
                        return False
                else:
                    value[f] = want
                    stack.append(f)
    return True


def is_irreducibly_odd(code) -> bool:
    """All chords Gaussian-odd and every chord pair distinguished by a third
    chord's interlacement."""
    code = as_code(code)
    if code.component_count != 1:
        raise PreconditionError("irreducible oddness requires one component")
    g = interlacement(code)
    if any(g.degree(v) % 2 == 0 for v in g.vertices):
        return False
    nbr = g.neighbor_sets()
    for a, b in itertools.combinations(g.vertices, 2):
        if not (nbr[a] ^ nbr[b]) - {a, b}:
            return False
    return True


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
