"""Core diagram model for free knots and links.

A diagram comes in three forms, and ``as_code``, ``to_framed`` and
``canonicalize`` take any of them:

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
leaves a vertex through the slot opposite to the one it entered.  Three
in-place steps on the matching do the work: ``remove_vertex`` removes a
vertex, ``thread`` lays a strand through vertices and ``circles`` walks the
strands.  Nothing is oriented or has over/under data.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Hashable, Iterator, NamedTuple

FREE_LOOP_TOKEN = "O"

class CodeError(ValueError):
    """Raised for malformed Gauss-code text or invalid code structure."""


class PreconditionError(ValueError):
    """Raised when an operation is called outside its stated domain."""


class BudgetError(ValueError):
    """Raised when an input exceeds a hard brute-force size bound."""


def require_ints(**values) -> None:
    """Raise ``PreconditionError`` unless every named value is an int."""
    for name, v in values.items():
        if not isinstance(v, int):
            raise PreconditionError(f"{name} must be an int, got {v!r}")


# ---------------------------------------------------------------------------
# Gauss codes


@dataclass(frozen=True)
class GaussCode:
    """Cyclic double-occurrence words plus a free-loop count.

    ``words`` holds one tuple of labels per circle component that passes
    through at least one crossing; chord-free circles are counted in
    ``free_loops`` instead of appearing as empty words.
    """

    words: tuple[tuple[Hashable, ...], ...] = ()
    free_loops: int = 0

    def __post_init__(self):
        if not isinstance(self.free_loops, int) or self.free_loops < 0:
            raise CodeError("free_loops must be a non-negative int")
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
        return list(dict.fromkeys(lab for w in self.words for lab in w))

    @property
    def chord_count(self) -> int:
        return sum(map(len, self.words)) // 2

    @property
    def component_count(self) -> int:
        return len(self.words) + self.free_loops


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


@functools.cache
def _int_label_name(i: int) -> str:
    """0 -> a, 1 -> b, ..., 25 -> z, 26 -> aa, ...  Cached: one entry per
    label up to the largest chord count rendered."""
    s = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        s = chr(97 + r) + s
    return s


class CanonicalCode(NamedTuple):
    """Symmetry-minimised relabeled Gauss code; the equality and hash key
    for diagrams.  Labels are first-occurrence indices 0..n-1.  A named
    tuple, so that hashing, equality and order, which a move search pays
    on every child, run in C; it orders as ``(words, free_loops)``."""

    words: tuple[tuple[int, ...], ...] = ()
    free_loops: int = 0

    # the same sizes as a Gauss code's (a named tuple takes no mixin)
    chord_count = GaussCode.chord_count
    component_count = GaussCode.component_count

    def code(self) -> GaussCode:
        return GaussCode(self.words, self.free_loops)

    def __str__(self) -> str:
        segs = [FREE_LOOP_TOKEN] * self.free_loops
        segs.extend(" ".join(map(_int_label_name, w)) for w in self.words)
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
        if not isinstance(self.free_loops, int) or self.free_loops < 0:
            raise CodeError("free_loops must be a non-negative int")
        if not (isinstance(self.labels, tuple) and isinstance(self.mate, list)):
            raise CodeError("labels must be a tuple and mate a list")
        try:
            if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
                raise CodeError("vertex labels must be distinct and increasing")
        except TypeError:
            raise CodeError("vertex labels must compare with each other") from None
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
        """Position of vertex ``v`` in ``labels``, by binary search."""
        labels = self.labels
        try:
            i = bisect.bisect_left(labels, v)
        except TypeError:  # v does not compare with the labels
            i = len(labels)
        if i == len(labels) or labels[i] != v:
            raise CodeError(f"vertex {v!r} not in diagram")
        return i

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
    try:
        labels = tuple(sorted({lab for w in code.words for lab in w}))
    except TypeError:
        raise CodeError("chord labels must compare with each other") from None
    entry = {v: 4 * i for i, v in enumerate(labels)}
    mate = [0] * (4 * len(labels))
    for w in code.words:
        passes = []
        for lab in w:
            passes.append(entry[lab])
            entry[lab] += 1
        thread(mate, passes)
    return FramedDiagram(labels, mate, code.free_loops, validate=False)


def thread(mate: list, passes, ends=None) -> None:
    """Lay a strand on an integer matching in place.  It enters each vertex
    at its half-edge in ``passes`` and leaves through the opposite one, and
    runs from half-edge ``ends[0]`` to ``ends[1]``, or closes on itself
    when ``ends`` is None."""
    a, b = (passes[-1] ^ 2, passes[0]) if ends is None else ends
    for h in passes:
        mate[a], mate[h] = h, a
        a = h ^ 2
    mate[a], mate[b] = b, a


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
    """The matching with vertex ``order[j]`` renumbered ``j``.  ``order``
    lists every vertex once, or only the kept ones when none of them is
    matched into a dropped one."""
    base = [0] * (len(mate) >> 2)
    for j, i in enumerate(order):
        base[i] = 4 * j
    return [base[g >> 2] | g & 3 for i in order for g in mate[4 * i:4 * i + 4]]


def splice_out(d: FramedDiagram, repairings: dict) -> FramedDiagram:
    """Remove the vertices in ``repairings`` (vertex -> slot re-pairing) and
    reconnect edges along the induced strands.  Strand pieces that close up
    without touching a surviving vertex become free loops."""
    return splice_out_at(d, {d.index(v): pairing for v, pairing in repairings.items()})


def splice_out_at(d: FramedDiagram, repairings: dict) -> FramedDiagram:
    """``splice_out`` with the vertices given by number, not by label."""
    mate, free = d.mate[:], d.free_loops
    for i, pairing in repairings.items():
        free += remove_vertex(mate, i, pairing)
    kept = [i for i in range(d.vertex_count) if i not in repairings]
    return FramedDiagram(tuple([d.labels[i] for i in kept]), renumber(mate, kept), free, validate=False)


def fresh_vertex_ids(d: FramedDiagram, count: int) -> list:
    """Deterministic new vertex ids that do not collide with existing ones.
    Integer diagrams get successive integers, others get w0, w1, ...  The
    labels are sorted, so they are of one comparable type: the last decides."""
    if not d.labels or isinstance(d.labels[-1], int):
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
def _canonical(words: tuple, free_loops: int) -> CanonicalCode:
    """The least relabelled form of the code ``(words, free_loops)`` over
    all component orders, rotations and per-component reflections.  Free
    loops pass through.  ``canonicalize`` is its only caller through the
    cache; ``__wrapped__`` is the uncached function, for codes met once.

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
    the least word so far and dropped at its first larger label.

    A state tries only the walks that can be least:

    * A letter is labelled when its chord ends on a placed component; it
      occurs once on an unplaced one.  Every walk from a labelled letter
      starts below every walk from an unlabelled one, which starts with
      the next label.  So if any unplaced component has a labelled letter,
      only those whose least labelled letter is least compete, each by the
      two walks from that letter.
    * Otherwise a walk reads fresh labels up to its first repeat.  On a
      component with chords of its own, the repeat comes earliest, after
      l letters, on the walks along a shortest arc of such a chord: forward
      from the arc's start or backward from its end.  A chord that halves
      its circle has two shortest arcs.
    * A component of L letters with no chord of its own reads the same L
      fresh labels on all 2L walks, which tie with different label maps,
      and that word is a prefix of any word whose first repeat comes after
      L letters or more.  So ranked ``(l, 1)`` and ``(L, 0)``, only the
      components of least rank compete."""
    k = len(words)
    index: dict = {}
    # per component: its letters twice over, forward and backward; the
    # walks that can be least while none of its letters is labelled, and
    # their rank; and the positions of its letters whose chords end on
    # another component
    comps = []
    for w in words:
        iw = [index.setdefault(x, len(index)) for x in w]
        size, fw = len(iw), iw + iw
        bw = fw[::-1]  # the walk backward from position e is bw[size-1-e:][:size]
        once: dict = {}
        arcs = []  # (length, start, end) of the shorter arcs of its own chords
        for q, x in enumerate(iw):
            p = once.pop(x, q)
            if p == q:
                once[x] = q
            else:
                d = q - p
                if 2 * d <= size:
                    arcs.append((d, p, q))
                if 2 * d >= size:
                    arcs.append((size - d, q, p))
        least, rank = None, (size, 0)
        if arcs:
            ell = min(arcs)[0]
            least = [fw[s:s + size] for a, s, _ in arcs if a == ell]
            least += [bw[size - 1 - e:2 * size - 1 - e] for a, _, e in arcs if a == ell]
            rank = (ell, 1)
        comps.append((fw, bw, size, least, rank, once))
    n = len(index)
    # a state: the label of each letter (-1 if none yet), the components
    # used (a bit mask), the next label
    states = [([-1] * n, 0, 0)]
    out = []
    for depth in range(k):
        last = depth == k - 1
        best = (n,)  # above every word
        bound = best + (-1,)  # a walk longer than best is larger
        ties: dict = {}
        for lab, used, nxt in states:
            # the unplaced components of least key, each with its walks
            top = None
            chosen = []
            for c, (fw, bw, size, least, rank, once) in enumerate(comps):
                if used >> c & 1:
                    continue
                m = n
                for x, i in once.items():
                    if -1 < lab[x] < m:
                        m, at = lab[x], i
                key = (-1, m) if m < n else rank
                if top is None or key < top:
                    top, chosen = key, []
                if key == top:
                    if m < n:  # the two walks from the least labelled letter
                        least = [fw[at:at + size], bw[size - 1 - at:2 * size - 1 - at]]
                    elif least is None:  # no chord of its own: every walk
                        least = [seq[s:s + size] for seq in (fw, bw) for s in range(size)]
                    chosen.append((c, least))
            for c, cand in chosen:
                bit = 1 << c
                for walk in cand:
                    mine = lab[:]
                    nx = nxt
                    j = 0
                    for x in walk:
                        m = mine[x]
                        if m < 0:
                            m = mine[x] = nx
                            nx += 1
                        if m != bound[j]:
                            break
                        j += 1
                    else:
                        if j == len(best):  # a tie
                            if not last:
                                ties.setdefault((used | bit, tuple(mine)), nx)
                            continue
                        m = -1  # a proper prefix of best
                    if m < bound[j]:  # a new least word
                        for x in walk[j + 1:]:
                            if mine[x] < 0:
                                mine[x] = nx
                                nx += 1
                        best = tuple([mine[x] for x in walk])
                        bound = best + (-1,)
                        ties = {} if last else {(used | bit, tuple(mine)): nx}
        out.append(best)
        states = [(list(lab), used, nx) for (used, lab), nx in ties.items()]
    return CanonicalCode(tuple(out), free_loops)


def canonicalize(d: GaussCode | CanonicalCode | FramedDiagram) -> CanonicalCode:
    """The canonical form of any diagram form; diagrams are equal when
    their forms are.  It is cached by the plain pair ``(words,
    free_loops)``: a code's own words, or for a framed graph the words of
    its vertex numbers, so that every labelling of a graph shares one entry.

    The cache holds at most ``2**18`` entries.  An entry keeps its key, its
    result and its cache link alive: about 670 bytes at the sizes of a move
    search (1-2 components, 3-9 chords) and 790 bytes for the reduced states
    of a state sum (tracemalloc, over the codes the search and state-sum
    benchmarks miss on), so a full cache takes 175-205 MB."""
    if isinstance(d, FramedDiagram):
        return _canonical(tuple([tuple([h >> 2 for h in seq]) for seq in circles(d.mate)]), d.free_loops)
    return _canonical(d.words, d.free_loops)


canonicalize.cache_info = _canonical.cache_info
canonicalize.cache_clear = _canonical.cache_clear


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small diagrams


def _grow(c: CanonicalCode) -> Iterator[tuple]:
    """Every code ``(words, free_loops)`` made by adding chord ``n`` to the
    n-chord class ``c``, its two ends at an unordered pair of gaps.  A word
    of length m has m gaps and a free loop is a word with one gap.  As loops
    are interchangeable, one stands for all, and a second one is needed only
    for a chord with one end on each."""
    x = c.chord_count
    k = len(c.words)
    words = list(c.words) + [()] * min(c.free_loops, 2)
    sites = [(a, i) for a, w in enumerate(words[:k + 1]) for i in range(max(len(w), 1))]
    pairs = [(s, t) for i, s in enumerate(sites) for t in sites[i:]]
    if c.free_loops > 1:
        pairs.append(((k, 0), (k + 1, 0)))
    for (a, i), (b, j) in pairs:
        new = words[:]
        for word, gap in ((b, j), (a, i)):  # the later gap first keeps the earlier's index
            new[word] = new[word][:gap] + (x,) + new[word][gap:]
        grown = tuple([w for w in new if w])
        yield grown, c.free_loops + k - len(grown)


@functools.lru_cache(maxsize=None, typed=True)
def enumerate_codes(n: int, k: int) -> tuple[CanonicalCode, ...]:
    """All isomorphism classes of diagrams with ``n`` chords and ``k``
    components (free loops included), each exactly once, sorted.

    The n-chord classes grow from the (n-1)-chord ones by ``_grow``,
    deduplicated by canonical form, which the uncached core of
    ``canonicalize`` computes: most grown codes are met once, and caching
    them would evict the entries a long-running process has.  None is
    missed: deleting a chord of an n-chord, k-component diagram leaves an
    (n-1)-chord one on k components (a word it empties becomes a free loop)
    that grows back into it.  The sizes must be ints; ``typed`` keeps
    ``2.0`` off ``2``'s cache entry."""
    require_ints(n=n, k=k)
    if n < 0 or k < 0:
        raise PreconditionError("n and k must be non-negative")
    if n > 8:
        raise BudgetError("enumeration is bounded at 8 chords")
    if n == 0:
        return (CanonicalCode((), k),)
    return tuple(sorted({_canonical.__wrapped__(*g) for c in enumerate_codes(n - 1, k) for g in _grow(c)}))
