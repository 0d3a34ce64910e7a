"""Core diagram model for free knots and links.

A diagram is stored in two interchangeable forms:

* ``GaussCode`` -- a multiset of cyclic words over chord labels, each label
  occurring exactly twice, plus a count of chord-free circle components
  ("free loops").
* ``FramedDiagram`` -- the equivalent 4-valent framed graph: every vertex has
  four half-edge slots 0..3 with the fixed opposition pairing (0,2), (1,3),
  and the edges form a perfect matching on all slots.

The traversal convention ties the two together: a closed curve always leaves
a vertex through the slot opposite to the one it entered.  Diagram equality
is canonical-form equality (``canonicalize``), which minimises over component
order, rotations, reflections and relabelings.  ``as_code`` and ``to_framed``
take any form, ``CanonicalCode`` too.  Nothing is oriented or has over/under data.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Hashable, Iterator

FREE_LOOP_TOKEN = "O"

#: half-edge = (vertex id, slot in 0..3)
HalfEdge = tuple


class CodeError(ValueError):
    """Raised for malformed Gauss-code text or invalid code structure."""


class PreconditionError(ValueError):
    """Raised when an operation is called outside its stated domain."""


class BudgetError(ValueError):
    """Raised when an input exceeds a hard brute-force size bound."""


def opposite(slot: int) -> int:
    return (slot + 2) % 4


# ---------------------------------------------------------------------------
# Gauss codes


class _WordCounts:
    """Sizes of a word form: ``words`` plus ``free_loops``."""

    @property
    def chord_count(self) -> int:
        return sum(len(w) for w in self.words) // 2

    @property
    def component_count(self) -> int:
        return len(self.words) + self.free_loops


@dataclass(frozen=True)
class GaussCode(_WordCounts):
    """Cyclic double-occurrence words plus a free-loop count.

    ``words`` holds one tuple of labels per circle component that passes
    through at least one crossing; chord-free circles are counted in
    ``free_loops`` instead of appearing as empty words.
    """

    words: tuple[tuple[Hashable, ...], ...] = ()
    free_loops: int = 0

    def __post_init__(self):
        if self.free_loops < 0:
            raise CodeError("free_loops must be non-negative")
        counts: dict[Hashable, int] = {}
        for w in self.words:
            if len(w) == 0:
                raise CodeError("empty component word (use free_loops)")
            for lab in w:
                counts[lab] = counts.get(lab, 0) + 1
        bad = {lab: c for lab, c in counts.items() if c != 2}
        if bad:
            detail = ", ".join(f"{lab!r} occurs {c} time(s)" for lab, c in sorted(bad.items(), key=repr))
            raise CodeError(f"every chord label must occur exactly twice: {detail}")

    def labels(self) -> list:
        seen = []
        found = set()
        for w in self.words:
            for lab in w:
                if lab not in found:
                    found.add(lab)
                    seen.append(lab)
        return seen


def code_lines(text: str) -> list[str]:
    """The lines of a code file that are neither blank nor ``#`` comments."""
    return [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]


def parse_gauss_code(text: str) -> GaussCode:
    """Parse the shared text grammar: components split on ``|``, labels are
    runs of ``[A-Za-z0-9_]`` split on whitespace, and a component consisting
    of the single token ``O`` is a free loop.  Empty input is the empty
    diagram."""
    if text.strip() == "":
        return GaussCode((), 0)
    words: list[tuple[str, ...]] = []
    free_loops = 0
    for seg in text.split("|"):
        tokens = seg.split()
        if not tokens:
            raise CodeError("empty component between '|' separators")
        if tokens == [FREE_LOOP_TOKEN]:
            free_loops += 1
            continue
        for tok in tokens:
            if tok == FREE_LOOP_TOKEN:
                raise CodeError(f"token {FREE_LOOP_TOKEN!r} is reserved for free loops")
            if not all(ch.isascii() and (ch.isalnum() or ch == "_") for ch in tok):
                raise CodeError(f"malformed token {tok!r}")
        words.append(tuple(tokens))
    return GaussCode(tuple(words), free_loops)


def render_gauss_code(code: GaussCode) -> str:
    """Inverse of ``parse_gauss_code`` up to canonical equality; the empty
    diagram renders as the empty string."""
    segs = [FREE_LOOP_TOKEN] * code.free_loops
    segs.extend(" ".join(str(lab) for lab in w) for w in code.words)
    return " | ".join(segs)


def _int_label_name(i: int) -> str:
    """0 -> a, 1 -> b, ..., 25 -> z, 26 -> aa, ..."""
    s = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        s = chr(97 + r) + s
    return s


@dataclass(frozen=True, order=True)
class CanonicalCode(_WordCounts):
    """Symmetry-minimised relabeled Gauss code; the equality and hash key
    for diagrams.  Labels are first-occurrence indices 0..n-1."""

    words: tuple[tuple[int, ...], ...] = ()
    free_loops: int = 0

    def code(self) -> GaussCode:
        return GaussCode(self.words, self.free_loops)

    def __str__(self) -> str:
        segs = [FREE_LOOP_TOKEN] * self.free_loops
        segs.extend(" ".join(_int_label_name(lab) for lab in w) for w in self.words)
        return " | ".join(segs)


# ---------------------------------------------------------------------------
# Framed 4-valent graphs


class FramedDiagram:
    """4-valent framed graph: a perfect matching ``mate`` on half-edges
    (vertex, slot), slot opposition fixed as (0,2),(1,3), plus a free-loop
    count.  Instances are treated as immutable; operations build new ones."""

    __slots__ = ("mate", "free_loops")

    def __init__(self, mate: dict, free_loops: int = 0, validate: bool = True):
        self.mate = mate
        self.free_loops = free_loops
        if validate:
            self._check()

    def _check(self):
        if self.free_loops < 0:
            raise CodeError("free_loops must be non-negative")
        slots: dict = {}
        for h, g in self.mate.items():
            if self.mate.get(g) != h:
                raise CodeError(f"mate is not an involution at {h!r}")
            if h == g:
                raise CodeError(f"half-edge {h!r} matched to itself")
            slots.setdefault(h[0], set()).add(h[1])
        for v, ss in slots.items():
            if ss != {0, 1, 2, 3}:
                raise CodeError(f"vertex {v!r} does not have exactly slots 0..3")

    def vertices(self) -> list:
        return sorted({h[0] for h in self.mate})

    @property
    def vertex_count(self) -> int:
        return len(self.mate) // 4

    def edges(self) -> list[tuple[HalfEdge, HalfEdge]]:
        """Edges as sorted (min, max) half-edge pairs, sorted."""
        out = []
        for h, g in self.mate.items():
            if h < g:
                out.append((h, g))
        out.sort()
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FramedDiagram)
            and self.mate == other.mate
            and self.free_loops == other.free_loops
        )

    def __repr__(self) -> str:
        return f"FramedDiagram({self.vertex_count} vertices, {self.free_loops} free loops)"


def to_framed(code: GaussCode | CanonicalCode | FramedDiagram) -> FramedDiagram:
    """Build the framed graph of a code (a ``FramedDiagram`` is returned as
    is).  Chord labels become vertex ids.  First passage of a label uses slots
    (0 in, 2 out), the second (1, 3); cyclically consecutive letters share an edge."""
    if isinstance(code, FramedDiagram):
        return code
    code = as_code(code)
    mate: dict = {}
    occ_count: dict = {}
    for w in code.words:
        passes = []
        for lab in w:
            k = occ_count.get(lab, 0)
            occ_count[lab] = k + 1
            entry, exit_ = (0, 2) if k == 0 else (1, 3)
            passes.append(((lab, entry), (lab, exit_)))
        for i, (_, exit_h) in enumerate(passes):
            entry_h = passes[(i + 1) % len(passes)][0]
            mate[exit_h] = entry_h
            mate[entry_h] = exit_h
    return FramedDiagram(mate, code.free_loops)


def unicursal_components(d: FramedDiagram) -> list[list[HalfEdge]]:
    """Closed traversals that exit every vertex through the opposite slot.

    Returns one passage list per non-free-loop component; a passage is the
    entry half-edge (vertex, slot) of the traversal.  Free loops are held in
    ``d.free_loops``; the total component count is
    ``len(result) + d.free_loops``."""
    visited: set = set()
    comps: list[list[HalfEdge]] = []
    for start in sorted(d.mate):
        if start in visited:
            continue
        seq = []
        h = start
        while True:
            v, s = h
            visited.add(h)
            exit_h = (v, opposite(s))
            visited.add(exit_h)
            seq.append(h)
            h = d.mate[exit_h]
            if h == start:
                break
        comps.append(seq)
    return comps


def component_count(d: FramedDiagram) -> int:
    return len(unicursal_components(d)) + d.free_loops


def from_framed(d: FramedDiagram) -> GaussCode:
    """Read the Gauss code back off a framed graph; labels are vertex ids."""
    words = tuple(tuple(v for v, _ in seq) for seq in unicursal_components(d))
    return GaussCode(words, d.free_loops)


def as_code(code: GaussCode | CanonicalCode | FramedDiagram) -> GaussCode:
    """The Gauss code of any of the three diagram forms."""
    if isinstance(code, FramedDiagram):
        return from_framed(code)
    if isinstance(code, CanonicalCode):
        return code.code()
    return code


# Slot re-pairings used when a vertex is removed.  The two smoothings join
# non-opposite slots; the flat pairing joins opposite slots (used by R2
# reduction, where each transit strand continues straight through).
PAIRING_A = {0: 1, 1: 0, 2: 3, 3: 2}
PAIRING_B = {0: 3, 3: 0, 1: 2, 2: 1}
PAIRING_FLAT = {0: 2, 2: 0, 1: 3, 3: 1}


def splice_out(d: FramedDiagram, repairings: dict) -> FramedDiagram:
    """Remove the vertices in ``repairings`` (vertex -> slot involution) and
    reconnect edges along the induced strands.  Strand pieces that close up
    without touching a surviving vertex become free loops."""
    if not repairings:
        return FramedDiagram(dict(d.mate), d.free_loops, validate=False)
    removed = set(repairings)
    new_mate: dict = {}
    visited: set = set()
    for h in sorted(d.mate):
        if h[0] in removed or h in new_mate:
            continue
        cur = d.mate[h]
        while cur[0] in removed:
            visited.add(cur)
            hop = (cur[0], repairings[cur[0]][cur[1]])
            visited.add(hop)
            cur = d.mate[hop]
        new_mate[h] = cur
        new_mate[cur] = h
    free = d.free_loops
    for h0 in sorted(d.mate):
        if h0[0] not in removed or h0 in visited:
            continue
        cur = h0
        while True:
            visited.add(cur)
            hop = (cur[0], repairings[cur[0]][cur[1]])
            visited.add(hop)
            cur = d.mate[hop]
            if cur == h0:
                break
        free += 1
    return FramedDiagram(new_mate, free, validate=False)


def fresh_vertex_ids(d: FramedDiagram, count: int) -> list:
    """Deterministic new vertex ids that do not collide with existing ones.
    Integer diagrams get successive integers, others get w0, w1, ..."""
    existing = set(h[0] for h in d.mate)
    out: list = []
    if all(isinstance(v, int) for v in existing):
        nxt = max(existing, default=-1) + 1
        while len(out) < count:
            out.append(nxt)
            nxt += 1
    else:
        i = 0
        while len(out) < count:
            cand = f"w{i}"
            i += 1
            if cand not in existing:
                out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Canonical form


@functools.lru_cache(maxsize=1 << 18)
def canonicalize(code: GaussCode | CanonicalCode) -> CanonicalCode:
    """Minimum relabeled form over all component orders, rotations and
    per-component reflections.  Deterministic; free loops pass through."""
    code = as_code(code)
    k = len(code.words)
    if k == 0:
        return CanonicalCode((), code.free_loops)

    variants: list[tuple] = []
    for w in code.words:
        vs = set()
        for base in (w, w[::-1]):
            for r in range(len(base)):
                vs.add(base[r:] + base[:r])
        variants.append(tuple(vs))

    best: list | None = None

    def rec(used: list, acc: list, mapping: dict, nxt: int):
        nonlocal best
        depth = len(acc)
        if best is not None and acc > best[:depth]:
            return
        if depth == k:
            if best is None or acc < best:
                best = list(acc)
            return
        for i in range(k):
            if used[i]:
                continue
            used[i] = True
            for var in variants[i]:
                m2 = dict(mapping)
                n2 = nxt
                rel = []
                for lab in var:
                    x = m2.get(lab)
                    if x is None:
                        m2[lab] = x = n2
                        n2 += 1
                    rel.append(x)
                acc.append(tuple(rel))
                rec(used, acc, m2, n2)
                acc.pop()
            used[i] = False

    rec([False] * k, [], {}, 0)
    assert best is not None
    return CanonicalCode(tuple(best), code.free_loops)


def canonical_of(d: GaussCode | CanonicalCode | FramedDiagram) -> CanonicalCode:
    return canonicalize(as_code(d))


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small diagrams


def _perfect_matchings(items: tuple) -> Iterator[tuple]:
    if not items:
        yield ()
        return
    a = items[0]
    for j in range(1, len(items)):
        b = items[j]
        rest = items[1:j] + items[j + 1:]
        for m in _perfect_matchings(rest):
            yield ((a, b),) + m


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` positive parts."""
    if total == 0 or parts == 0:
        if total == parts:
            yield ()
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        prev = 0
        comp = []
        for c in cuts + (total,):
            comp.append(c - prev)
            prev = c
        yield tuple(comp)


def _matching_to_words(matching: tuple, lengths: tuple[int, ...]) -> tuple:
    """Split positions 0..2n-1 into words of the given lengths, labeling the
    matched pairs by first occurrence."""
    total = sum(lengths)
    owner: dict = {}
    for a, b in matching:
        owner[a] = (a, b)
        owner[b] = (a, b)
    assign: dict = {}
    label_at = [0] * total
    for pos in range(total):
        pair = owner[pos]
        if pair not in assign:
            assign[pair] = len(assign)
        label_at[pos] = assign[pair]
    words = []
    start = 0
    for ln in lengths:
        words.append(tuple(label_at[start:start + ln]))
        start += ln
    return tuple(words)


def raw_arrangements(n: int, k: int) -> Iterator[tuple]:
    """Words of all (2n-1)!! chord matchings laid on each composition of 2n into ``k``."""
    for lengths in _compositions(2 * n, k):
        for matching in _perfect_matchings(tuple(range(2 * n))):
            yield _matching_to_words(matching, lengths)


@functools.lru_cache(maxsize=None)
def enumerate_codes(n: int, k: int) -> tuple[CanonicalCode, ...]:
    """All isomorphism classes of diagrams with ``n`` chords and ``k``
    components (free loops included), each exactly once, sorted.

    For k=1 the raw stream before deduplication has (2n-1)!! words."""
    if n < 0 or k < 0:
        raise PreconditionError("n and k must be non-negative")
    if n > 8:
        raise BudgetError("enumeration is bounded at 8 chords")
    seen: set[CanonicalCode] = set()
    for loops in range(k + 1):
        for words in raw_arrangements(n, k - loops):
            seen.add(canonicalize(GaussCode(words, loops)))
    return tuple(sorted(seen))
