"""Minimality certificates, realizability, bounded move search, and random
diagram generation.

The vertex lower bounds come from the state sums: every term of the
one-component bracket is a smoothing of any representative, so its size
bounds the representative from below; every term of the composed bracket
arises after splitting one crossing first, adding one.  A bound equal to the
diagram's own crossing number certifies minimality.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from importlib import resources

from .brackets import alex_bracket, kauffman_bracket, kdelta
from .diagrams import (
    BudgetError,
    CanonicalCode,
    CodeError,
    GaussCode,
    PreconditionError,
    canonicalize,
    code_lines,
    component_count,
    from_framed,
    parse_gauss_code,
    require_ints,
    to_framed,
)
from .moves import R1_UP, _apply, _labelled, _moves
from .parity import InterlacementGraph, interlacement

REALIZABLE_MAX_VERTICES = 8

#: a move search raises ``BudgetError`` once it has visited more classes
#: than this, a reached target among them.  A visited class keeps about 345
#: bytes alive: its canonical code (about 265) and its parent link and
#: frontier slot (75-87, measured with tracemalloc and warm caches on
#: ``explore_moves("a b c a b c", 7, 4)`` and ``("a b a c b c", 7, 3)``,
#: 3,211 and 2,804 classes).  So 2**18 classes take about 90 MB, besides
#: canonicalize's cache and ``_memo``, the children of the classes searches
#: have expanded.
SEARCH_MAX_VISITED = 1 << 18


# ---------------------------------------------------------------------------
# Minimality certificates


@dataclass(frozen=True)
class MinimalityCertificate:
    """A proven lower bound on the vertex count of every equivalent diagram.
    ``tight`` means the bound equals the diagram's own vertex count, i.e.
    the diagram is minimal."""

    diagram: CanonicalCode
    bound: int
    witness_invariant: str  # alex | kdelta | kauffman
    witness_term: CanonicalCode | None
    tight: bool


def _largest(s) -> tuple[int, CanonicalCode | None]:
    """The chord count and the greatest of a sum's largest terms; 0, None if empty."""
    return max(((t.chord_count, t) for t in s.terms), default=(0, None))


def lower_bound_knot(code) -> MinimalityCertificate:
    """max(largest one-component bracket term, largest composed-bracket term
    plus one); empty sums contribute zero."""
    can = canonicalize(code)
    (a_bound, a), (kd_bound, kd) = _largest(alex_bracket(code)), _largest(kdelta(code))
    if kd is not None and kd_bound + 1 > a_bound:
        bound, name, witness = kd_bound + 1, "kdelta", kd
    else:
        bound, name, witness = a_bound, "alex", a
    return MinimalityCertificate(can, bound, name, witness, bound == can.chord_count)


def lower_bound_link2(code) -> MinimalityCertificate:
    """Largest term of the two-component bracket."""
    can = canonicalize(code)
    bound, witness = _largest(kauffman_bracket(code))
    return MinimalityCertificate(can, bound, "kauffman", witness, bound == can.chord_count)


def intersection_graph(code) -> InterlacementGraph:
    """Interlacement graph of a one-component code (realizability input)."""
    if component_count(to_framed(code)) != 1:
        raise PreconditionError("intersection graph requires one component")
    return interlacement(code)


# ---------------------------------------------------------------------------
# Realizability of abstract graphs as interlacement graphs


def parse_adjacency(text: str) -> InterlacementGraph:
    """Adjacency-list grammar: one line per vertex, ``u: v w ...``;
    lines may also be separated by ';'.  Vertex names hold no whitespace."""
    verts: list = []
    edges: set = set()
    seen: set = set()
    for raw in text.replace(";", "\n").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise CodeError(f"adjacency line {line!r} lacks ':'")
        head, _, rest = line.partition(":")
        u = head.strip()
        if not u:
            raise CodeError(f"adjacency line {line!r} lacks a vertex")
        if len(u.split()) > 1:
            raise CodeError(f"vertex name {u!r} contains whitespace")
        if u not in seen:
            seen.add(u)
            verts.append(u)
        for v in rest.split():
            if v == u:
                raise CodeError(f"loop at {u!r} not allowed")
            if v not in seen:
                seen.add(v)
                verts.append(v)
            edges.add(frozenset((u, v)))
    return InterlacementGraph(tuple(sorted(verts)), frozenset(edges))


def graphs_isomorphic(g1: InterlacementGraph, g2: InterlacementGraph) -> bool:
    """Brute-force isomorphism with degree pruning; fine at <= 8 vertices.

    Nothing in the package calls it since ``realizable`` stopped comparing
    graphs.  It stays because the benchmark's per-layer trace names it, and
    a traced name that is gone breaks ``perfbench/run.py --trace 1``."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    n1, n2 = g1.neighbor_sets(), g2.neighbor_sets()
    deg1 = sorted(len(s) for s in n1.values())
    deg2 = sorted(len(s) for s in n2.values())
    if deg1 != deg2:
        return False
    order = sorted(g1.vertices, key=lambda v: (-len(n1[v]), str(v)))
    candidates = {
        v: [w for w in g2.vertices if len(n2[w]) == len(n1[v])] for v in order
    }
    assign: dict = {}
    used: set = set()

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w not in used and all((p in n1[v]) == (pw in n2[w]) for p, pw in assign.items()):
                assign[v] = w
                used.add(w)
                if place(i + 1):
                    return True
                del assign[v]
                used.discard(w)
        return False

    return place(0)


def realizable(g: InterlacementGraph) -> CanonicalCode | None:
    """Witness one-circle code whose interlacement graph is isomorphic to
    ``g``, or None when none exists.

    The double-occurrence word is written over ``g``'s own vertices (vertex
    i is bit i), depth first.  ``parity`` holds the open letters.  An open
    letter ``v`` may close only when the letters seen once since it opened,
    ``parity ^ opened_at[v]``, are exactly its neighbours; a letter may open
    only while none of its neighbours has closed.  Each pair of letters is
    decided when the first of the two closes, so a finished word has
    interlacement graph exactly ``g``.  Four rules skip copies of words:

    1. Isolated vertices start closed, and the word found ends with
       ``v v`` for each: ``v v`` inserted anywhere crosses no chord, so
       the graph of the rest decides.
    2. The word starts with a non-isolated vertex of least degree: every
       word has a rotation that starts with it.
    3. ``late``, the least non-isolated vertex other than the start and
       not its neighbour, may not open while the start is open: both its
       ends lie in one arc between the start's ends, and of the two
       rotations that begin with the start, one puts that arc second.
    4. The start may close only when the letter just after it is at most
       the letter just before its second end: a word and its reverse have
       the same graph, and reversing swaps these two letters while keeping
       the start first and ``late``'s arc second.

    Each word a rule drops has a rotation or reverse that the search still
    writes, so the answer is the same; only the witness may differ.
    Budget: ``REALIZABLE_MAX_VERTICES``."""
    n = len(g.vertices)
    if n > REALIZABLE_MAX_VERTICES:
        raise BudgetError(f"realizability search is bounded at {REALIZABLE_MAX_VERTICES} vertices")
    if n == 0:
        return canonicalize(GaussCode((), 1)) if not g.edges else None
    index = {v: i for i, v in enumerate(g.vertices)}
    nbr = [0] * n
    for e in g.edges:
        a, b = (index[v] for v in e)
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    done = (1 << n) - 1
    isolated, tail, start, least = 0, (), -1, n
    for v, m in enumerate(nbr):
        if not m:
            isolated |= 1 << v
            tail += (v, v)
        elif m.bit_count() < least:
            start, least = v, m.bit_count()
    if start < 0:
        return canonicalize(GaussCode((tail,)))
    first = 1 << start
    others = done & ~(isolated | nbr[start] | first)
    late = (others & -others).bit_length() - 1  # -1 when there is none
    opened_at = [0] * n  # parity just after each letter opened
    opened_at[start] = first
    word = [start]

    def place(closed: int, parity: int) -> bool:
        if closed == done:
            return True
        for v in range(n):
            bit = 1 << v
            if parity & bit:
                if parity ^ opened_at[v] != nbr[v] or (v == start and word[1] > word[-1]):
                    continue
                now_closed = closed | bit
            elif (nbr[v] | bit) & closed or (v == late and parity & first):
                continue
            else:
                opened_at[v] = parity ^ bit
                now_closed = closed
            word.append(v)
            if place(now_closed, parity ^ bit):
                return True
            word.pop()
        return False

    return canonicalize(GaussCode((tuple(word) + tail,))) if place(isolated, first) else None


# ---------------------------------------------------------------------------
# Bounded breadth-first search over the move graph


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a bounded exploration.  ``reached`` is None when no target
    was given; budget exhaustion without reaching the target is a normal
    outcome, not an error."""

    start: CanonicalCode
    target: CanonicalCode | None
    max_vertices: int
    max_depth: int
    reached: bool | None
    visited: int
    min_vertices: int
    depth_reached: int
    path: tuple[str, ...] | None


#: the most expansions ``_memo`` holds; the oldest goes first (an ordered
#: dict, as deleting a plain dict's first key again and again makes each
#: next such deletion scan the holes left before it)
MEMO_MAX = 1 << 16
#: ``(class, max_vertices)`` -> the class's distinct children and the least
#: chord count among them, for every expansion that ran to its end
_memo: OrderedDict = OrderedDict()


def _children(can: CanonicalCode, max_vertices: int):
    """Yield the distinct classes one move away from ``can`` within
    ``max_vertices``, in the order their first move comes in ``_moves``,
    each as soon as its move is applied.  An R1+ kink on side 1 is skipped:
    its child is side 0's on the same site, which comes just before it.

    A search meets the same class again and again, in one run and across
    runs, so an expansion that runs to its end is stored in ``_memo``; one
    that its reader leaves early, at a target, is not, so the memo holds
    complete expansions only.

    Memory: at most ``MEMO_MAX`` entries.  An entry holds only references
    to canonical codes, about 190 + 8k bytes for k children (tracemalloc),
    and k is at most the class's move count, about 4n**2 at n crossings
    when increases fit the bound.  Over the first 57,000 ops of the search
    benchmark's stream at seed 11, 22,841 entries are stored, with 8.4
    children on average and at most 229, so a full memo takes about 17 MB,
    and 130 MB if every entry had 229 children.  The codes are shared with
    canonicalize's cache; one that cache has evicted stays alive here, at
    about 265 bytes."""
    d = to_framed(can)
    seen: dict = {}
    for m in _moves(d, max_vertices):
        if m[0] != R1_UP or not m[2]:
            child = canonicalize(_apply(d, m))
            if child not in seen:
                seen[child] = None
                yield child
    if len(_memo) >= MEMO_MAX:
        _memo.popitem(last=False)
    _memo[can, max_vertices] = tuple(seen), min((c.chord_count for c in seen), default=can.chord_count)


def _bfs(start: CanonicalCode, target: CanonicalCode | None, max_vertices: int, max_depth: int) -> SearchReport:
    """Breadth-first search over classes by their ``_children``: a stored
    expansion is read from ``_memo``, any other is walked move by move, so
    a search that meets its target stops there.  Each class keeps only its
    parent, and ``min_vertices`` takes the least chord count among a
    finished class's children at once.  A reached target's path is rebuilt
    step by step: the move of a step is the first move of the parent's
    framed graph (labels ``0..n-1``) whose child is the step's class, which
    is the move that first reached it, and only these moves are labelled.
    Budget: ``SEARCH_MAX_VISITED`` classes."""
    require_ints(max_vertices=max_vertices, max_depth=max_depth)
    if max_depth < 0:
        raise PreconditionError(f"max_depth must be non-negative, got {max_depth}")
    limit = SEARCH_MAX_VISITED
    parents: dict = {start: None}
    frontier = [start]
    depth = 0
    min_seen = start.chord_count
    reached = start == target if target is not None else None

    def finish(found: bool | None) -> SearchReport:
        path = None
        if found:
            steps = []
            child = target
            while (parent := parents[child]) is not None:
                d = to_framed(parent)
                move = next(m for m in _moves(d, max_vertices) if canonicalize(_apply(d, m)) == child)
                m = _labelled(d, move)
                steps.append(f"{m.kind}@{m.vertices or m.sites}")
                child = parent
            path = tuple(reversed(steps))
        return SearchReport(
            start, target, max_vertices, max_depth, found,
            len(parents), min_seen, depth, path,
        )

    if reached:
        return finish(True)
    while frontier and depth < max_depth:
        depth += 1
        nxt = []
        for can in frontier:
            key = can, max_vertices
            stored = _memo.get(key)
            first = len(nxt)
            for child in stored[0] if stored else _children(can, max_vertices):
                if child in parents:
                    continue
                parents[child] = can
                if len(parents) > limit:
                    raise BudgetError(f"move search visited more than {limit} classes")
                if target is not None and child == target:
                    # the class stops here: fold in the new children it put on
                    # the frontier, as every other visited class is folded in
                    min_seen = min(min_seen, child.chord_count, *(c.chord_count for c in nxt[first:]))
                    return finish(True)
                nxt.append(child)
            min_seen = min(min_seen, (stored or _memo[key])[1])
        frontier = nxt
    return finish(False if target is not None else None)


def bfs_equivalent(a, b, max_vertices: int, max_depth: int) -> SearchReport:
    """Bounded reachability between two codes; can certify equivalence but
    never inequivalence.  The bounds must be ints, ``max_depth`` >= 0."""
    ca, cb = canonicalize(a), canonicalize(b)
    if ca.component_count != cb.component_count:
        raise PreconditionError("codes with different component counts are never equivalent")
    return _bfs(ca, cb, max_vertices, max_depth)


def explore_moves(a, max_vertices: int, max_depth: int) -> SearchReport:
    """Full bounded sweep from one code (no target).  The bounds must be
    ints, ``max_depth`` >= 0."""
    return _bfs(canonicalize(a), None, max_vertices, max_depth)


# ---------------------------------------------------------------------------
# Random generation


def random_diagram(n: int, k: int, seed) -> GaussCode:
    """Uniform over raw double-occurrence word arrangements with ``n``
    chords and ``k`` components: a uniform ordered composition of 2n into k
    positive word lengths plus a uniform perfect matching of positions.
    ``n = 0`` yields ``k`` free loops.  The sizes must be ints."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    require_ints(n=n, k=k)
    if n < 0 or k < 0:
        raise PreconditionError("n and k must be non-negative")
    if n == 0:
        return GaussCode((), k)
    if not 1 <= k <= 2 * n:
        raise PreconditionError(f"no {k}-component arrangement of {n} chords exists")
    cuts = sorted(rng.sample(range(1, 2 * n), k - 1))
    free = list(range(2 * n))
    word = [0] * (2 * n)
    # chord i: the first free position and a uniform other one (first-occurrence labels)
    for i in range(n):
        word[free.pop(0)] = i
        word[free.pop(rng.randrange(len(free)))] = i
    return GaussCode(tuple(tuple(word[a:b]) for a, b in zip([0] + cuts, cuts + [2 * n])))


def random_moves(code, count: int, max_vertices: int, seed) -> GaussCode:
    """Apply ``count`` uniformly chosen applicable moves under the vertex
    budget; stops early only if no move applies.  Both must be ints, ``count``
    non-negative."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    require_ints(count=count, max_vertices=max_vertices)
    if count < 0:
        raise PreconditionError(f"count must be non-negative, got {count}")
    d = to_framed(code)
    for _ in range(count):
        moves = list(_moves(d, max_vertices))
        if not moves:
            break
        d = _apply(d, rng.choice(moves))
    return from_framed(d)


def load_fixture(name: str) -> GaussCode:
    """Read a shipped fixture ('k1' or 'l1'): Gauss-code text, '#' comments."""
    text = resources.files("freeknot.fixtures").joinpath(f"{name}.gauss").read_text()
    lines = code_lines(text)
    if len(lines) != 1:
        raise CodeError(f"fixture {name!r} must contain exactly one code line")
    return parse_gauss_code(lines[0])
