"""Core diagram model for free knots and links.

A diagram comes in three forms, and ``as_code`` and ``to_framed`` take any
of them:

* ``GaussCode`` -- a multiset of cyclic words over chord labels, each label
  occurring exactly twice, plus a count of chord-free circle components
  ("free loops").
* ``CanonicalCode`` -- the relabeled code that minimises over component
  order, rotations, reflections and relabelings (``canonicalize``); diagram
  equality is equality of this form.
* ``FramedDiagram`` -- the 4-valent framed graph.  Its matching *is* the
  diagram: half-edge ``4*i + s`` is slot ``s`` of the ``i``-th vertex, the
  opposition pairing (0,2), (1,3) makes ``h ^ 2`` the opposite of ``h``,
  and a flat list pairs every half-edge with its mate.

The traversal convention ties the forms together: a closed curve always
leaves a vertex through the slot opposite to the one it entered.  Splices,
smoothings and R2 reduction all remove a vertex by one in-place step on the
matching, ``remove_vertex``.  Nothing is oriented or has over/under data.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import InitVar, dataclass
from typing import Hashable, Iterator

FREE_LOOP_TOKEN = "O"

class CodeError(ValueError):
    """Raised for malformed Gauss-code text or invalid code structure."""


class PreconditionError(ValueError):
    """Raised when an operation is called outside its stated domain."""


class BudgetError(ValueError):
    """Raised when an input exceeds a hard brute-force size bound."""


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
    ``free_loops`` instead of appearing as empty words.  ``validate=False``
    skips the checks, for words read off a framed graph or a canonical code.
    """

    words: tuple[tuple[Hashable, ...], ...] = ()
    free_loops: int = 0
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if not validate:
            return
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
        return GaussCode(self.words, self.free_loops, validate=False)

    def __str__(self) -> str:
        segs = [FREE_LOOP_TOKEN] * self.free_loops
        segs.extend(" ".join(_int_label_name(lab) for lab in w) for w in self.words)
        return " | ".join(segs)


# ---------------------------------------------------------------------------
# Framed 4-valent graphs


class FramedDiagram:
    """4-valent framed graph as a flat perfect matching on half-edges.

    ``labels`` holds the vertex ids in increasing order.  Half-edge
    ``h = 4*i + s`` is slot ``s`` of vertex ``labels[i]``, its opposite slot
    is ``h ^ 2``, and ``mate[h]`` is the half-edge joined to it; so the
    integer order of half-edges is the order of their ``(vertex, slot)``
    pairs.  ``free_loops`` counts the circles without crossings.  Instances
    are treated as immutable; operations build new ones."""

    __slots__ = ("labels", "mate", "free_loops")

    def __init__(self, labels: tuple, mate: list, free_loops: int = 0, validate: bool = True):
        self.labels = labels
        self.mate = mate
        self.free_loops = free_loops
        if validate:
            self._check()

    def _check(self):
        if self.free_loops < 0:
            raise CodeError("free_loops must be non-negative")
        if not (isinstance(self.labels, tuple) and isinstance(self.mate, list)):
            raise CodeError("labels must be a tuple and mate a list")
        if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
            raise CodeError("vertex labels must be distinct and increasing")
        n = len(self.mate)
        if n != 4 * len(self.labels):
            raise CodeError(f"{n} half-edges for {len(self.labels)} vertices; each vertex has slots 0..3")
        for h, g in enumerate(self.mate):
            if g not in range(n) or self.mate[g] != h:
                raise CodeError(f"mate is not an involution at half-edge {h}")
            if h == g:
                raise CodeError(f"half-edge {h} matched to itself")

    def vertices(self) -> list:
        return list(self.labels)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def index(self, v) -> int:
        """Position of vertex ``v`` in ``labels``."""
        try:
            return self.labels.index(v)
        except ValueError:
            raise CodeError(f"vertex {v!r} not in diagram") from None

    def half_edge(self, h: int) -> tuple:
        """Half-edge ``h`` as a ``(vertex, slot)`` pair."""
        return self.labels[h >> 2], h & 3

    def edges(self) -> list[tuple]:
        """Edges as sorted (min, max) pairs of ``(vertex, slot)`` half-edges."""
        return [(self.half_edge(h), self.half_edge(g)) for h, g in enumerate(self.mate) if h < g]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FramedDiagram)
            and self.labels == other.labels
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
    labels = tuple(sorted({lab for w in code.words for lab in w}))
    entry = {v: 4 * i for i, v in enumerate(labels)}
    mate = [0] * (4 * len(labels))
    for w in code.words:
        passes = []
        for lab in w:
            passes.append(entry[lab])
            entry[lab] += 1
        prev = passes[-1]
        for h in passes:
            mate[prev ^ 2], mate[h] = h, prev ^ 2
            prev = h
    return FramedDiagram(labels, mate, code.free_loops, validate=False)


def circles(mate) -> list[list[int]]:
    """Closed traversals of an integer matching that leave every vertex
    through the slot opposite to the one they entered: one list of entry
    half-edges per circle, each starting at its least half-edge."""
    seen = [False] * len(mate)
    out = []
    for start in range(len(mate)):
        if not seen[start]:
            seq = []
            h = start
            while not seen[h]:
                seen[h] = seen[h ^ 2] = True
                seq.append(h)
                h = mate[h ^ 2]
            out.append(seq)
    return out


def unicursal_components(d: FramedDiagram) -> list[list[tuple]]:
    """Closed traversals that exit every vertex through the opposite slot.

    Returns one passage list per non-free-loop component; a passage is the
    entry half-edge (vertex, slot) of the traversal, and each list starts
    at its least one.  Free loops are held in ``d.free_loops``; the total
    component count is ``len(result) + d.free_loops``."""
    return [[d.half_edge(h) for h in seq] for seq in circles(d.mate)]


def component_count(d: FramedDiagram) -> int:
    return len(circles(d.mate)) + d.free_loops


def from_framed(d: FramedDiagram) -> GaussCode:
    """Read the Gauss code back off a framed graph; labels are vertex ids."""
    labels = d.labels
    words = tuple([tuple([labels[h >> 2] for h in seq]) for seq in circles(d.mate)])
    return GaussCode(words, d.free_loops, validate=False)


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
PAIRING_A = ((0, 1), (2, 3))
PAIRING_B = ((0, 3), (1, 2))
PAIRING_FLAT = ((0, 2), (1, 3))


def remove_vertex(mate: list, i: int, pairing: tuple) -> int:
    """Delete vertex ``i`` from an integer matching in place, joining the
    far ends of each slot pair in ``pairing``; returns the number of
    circles this closes, which become free loops.  The slots of ``i`` are
    left stale: no live half-edge is matched to them any more."""
    closed = 0
    for s, t in pairing:
        a, b = mate[4 * i + s], mate[4 * i + t]
        if a == 4 * i + t:
            closed += 1
        else:
            mate[a], mate[b] = b, a
    return closed


def renumber(mate: list, order) -> list:
    """The matching with vertex ``order[j]`` renumbered ``j``; ``order``
    lists every vertex once."""
    base = [0] * (len(mate) >> 2)
    for j, i in enumerate(order):
        base[i] = 4 * j
    return [base[g >> 2] | g & 3 for i in order for g in mate[4 * i:4 * i + 4]]


def splice_out(d: FramedDiagram, repairings: dict) -> FramedDiagram:
    """Remove the vertices in ``repairings`` (vertex -> slot re-pairing) and
    reconnect edges along the induced strands.  Strand pieces that close up
    without touching a surviving vertex become free loops."""
    labels, mate, free = list(d.labels), d.mate[:], d.free_loops
    # from the last vertex down, so the vertices still to go keep their numbers
    for i in sorted(map(d.index, repairings), reverse=True):
        free += remove_vertex(mate, i, repairings[labels.pop(i)])
        del mate[4 * i:4 * i + 4]
        # the half-edges above vertex i move down four places
        new = [*range(4 * i), -1, -1, -1, -1, *range(4 * i, len(mate))]
        mate = list(map(new.__getitem__, mate))
    return FramedDiagram(tuple(labels), mate, free, validate=False)


def fresh_vertex_ids(d: FramedDiagram, count: int) -> list:
    """Deterministic new vertex ids that do not collide with existing ones.
    Integer diagrams get successive integers, others get w0, w1, ..."""
    if all(isinstance(v, int) for v in d.labels):
        nxt = d.labels[-1] + 1 if d.labels else 0
        return list(range(nxt, nxt + count))
    existing = set(d.labels)
    out: list = []
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
    """The least relabelled form of a code over all component orders,
    rotations and per-component reflections.  Free loops pass through.

    A candidate picks an order of the components and a starting letter and
    direction for each, then numbers the letters 0, 1, ... by first
    occurrence.  Candidates compare as tuples of their component words:
    word by word, each word letter by letter, a word that is a proper
    prefix of another first.  The result is the least candidate.

    Every candidate has one word per component, so the least one starts
    with the least first word any walk gives, and any walk whose first word
    is larger cannot lead to it.  Only the ties go on, as states (label
    map, components used); the same holds at every later depth.  States
    with equal label map and components used have the same continuations
    and are kept once.  Each walk is relabelled letter by letter against
    the least word so far and dropped at its first larger label.  A
    component whose letters are all labelled already takes the least of
    its 2L slices at once.

    The cache holds at most ``2**18`` entries.  An entry keeps its key
    code, its result and its cache link alive: about 760 bytes at the sizes
    of a move search (1-2 components, 3-9 chords) and 880 bytes for the
    reduced states of a state sum, so a full cache takes 190-220 MB."""
    code = as_code(code)
    k = len(code.words)
    if k == 0:
        return CanonicalCode((), code.free_loops)
    index: dict = {}
    comps = []  # per component: length, doubled word, bit mask of its letters, walks
    for w in code.words:
        iw = [index.setdefault(x, len(index)) for x in w]
        size, fw = len(iw), iw + iw
        bw = fw[::-1]
        mask = 0
        for x in iw:
            mask |= 1 << x
        walks = [fw[s:s + size] for s in range(size)] + [bw[s:s + size] for s in range(size)]
        comps.append((size, fw, mask, walks))
    n = len(index)
    # a state: the label of each letter (-1 if none yet), the components
    # used and the letters labelled (bit masks), the next label
    states = [([-1] * n, 0, 0, 0)]
    out = []
    for depth in range(k):
        last = depth == k - 1
        best = (n,)  # above every word
        ties: dict = {}
        for lab, used, mapped, nxt in states:
            for c, (size, fw, mask, walks) in enumerate(comps):
                bit = 1 << c
                if used & bit:
                    continue
                if not mask & ~mapped:
                    # every walk keeps the label map: take the least slice
                    f = [lab[x] for x in fw]
                    word = tuple(min(seq[s:s + size] for seq in (f, f[::-1]) for s in range(size)))
                    if word > best:
                        continue
                    if word < best:
                        best, ties = word, {}
                    if not last:
                        ties.setdefault((used | bit, tuple(lab)), (lab, used | bit, mapped, nxt))
                    continue
                bound = best + (-1,)  # a walk longer than best is larger
                for walk in walks:
                    nx = nxt
                    fresh = []
                    j = 0
                    for x in walk:
                        m = lab[x]
                        if m < 0:
                            m = lab[x] = nx
                            nx += 1
                            fresh.append(x)
                        if m != bound[j]:
                            break
                        j += 1
                    else:
                        if j == len(best):  # a tie
                            if not last:
                                key = (used | bit, tuple(lab))
                                if key not in ties:
                                    ties[key] = (lab[:], used | bit, mapped | mask, nx)
                            for x in fresh:
                                lab[x] = -1
                            continue
                        m = -1  # a proper prefix of best
                    if m < bound[j]:  # a new least word
                        for x in walk[j + 1:]:
                            if lab[x] < 0:
                                lab[x] = nx
                                nx += 1
                                fresh.append(x)
                        best = tuple([lab[x] for x in walk])
                        bound = best + (-1,)
                        ties = {}
                        if not last:
                            ties[used | bit, tuple(lab)] = (lab[:], used | bit, mapped | mask, nx)
                    for x in fresh:
                        lab[x] = -1
        out.append(best)
        states = list(ties.values())
    return CanonicalCode(tuple(out), code.free_loops)


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
            seen.add(canonicalize(GaussCode(words, loops, validate=False)))
    return tuple(sorted(seen))
