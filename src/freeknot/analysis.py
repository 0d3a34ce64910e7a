"""Minimality certificates, realizability, bounded move search, and random
diagram generation.

The vertex lower bounds come from the state sums: every term of the
one-component bracket is a smoothing of any representative, so its size
bounds the representative from below; every term of the composed bracket
arises after splitting one crossing first, adding one.  A bound equal to the
diagram's own crossing number certifies minimality.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from importlib import resources

from .brackets import alex_bracket, kauffman_bracket, kdelta
from .diagrams import (
    BudgetError,
    CanonicalCode,
    CodeError,
    GaussCode,
    PreconditionError,
    as_code,
    canonicalize,
    code_lines,
    from_framed,
    parse_gauss_code,
    require_ints,
    to_framed,
)
from .moves import R1_UP, _apply, _labelled, _moves
from .parity import InterlacementGraph, interlacement

REALIZABLE_MAX_VERTICES = 8

#: a move search raises ``BudgetError`` once it has visited more classes
#: than this.  A visited class keeps about 345 bytes alive: its canonical
#: code (about 265) and its parent link and frontier slot (75-87, measured
#: with tracemalloc and warm caches on ``explore_moves("a b c a b c", 7, 4)``
#: and ``("a b a c b c", 7, 3)``, 3,211 and 2,804 classes).  So 2**18
#: classes take about 90 MB, besides canonicalize's cache and the memo of
#: ``_children``.
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


def lower_bound_knot(code) -> MinimalityCertificate:
    """max(largest one-component bracket term, largest composed-bracket term
    plus one); empty sums contribute zero."""
    can = canonicalize(code)
    a = alex_bracket(code)
    kd = kdelta(code)
    a_bound = a.max_term_vertices()
    kd_bound = kd.max_term_vertices() + 1 if kd.terms else 0
    if kd_bound > a_bound:
        bound, name, sum_ = kd_bound, "kdelta", kd
    else:
        bound, name, sum_ = a_bound, "alex", a
    witness = max(sum_.terms, key=lambda t: (t.chord_count, t)) if sum_.terms else None
    return MinimalityCertificate(can, bound, name, witness, bound == can.chord_count)


def lower_bound_link2(code) -> MinimalityCertificate:
    """Largest term of the two-component bracket."""
    can = canonicalize(code)
    kb = kauffman_bracket(code)
    bound = kb.max_term_vertices()
    witness = max(kb.terms, key=lambda t: (t.chord_count, t)) if kb.terms else None
    return MinimalityCertificate(can, bound, "kauffman", witness, bound == can.chord_count)


def intersection_graph(code) -> InterlacementGraph:
    """Interlacement graph of a one-component code (realizability input)."""
    c = as_code(code)
    if c.component_count != 1:
        raise PreconditionError("intersection graph requires one component")
    return interlacement(c)


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
    i is bit i), depth first and starting with vertex 0.  ``parity`` holds
    the open letters.  An open letter ``v`` may close only when the letters
    seen once since it opened, ``parity ^ opened_at[v]``, are exactly its
    neighbours; a letter may open only while none of its neighbours has
    closed.  Each pair of letters is decided when the first of the two
    closes, so a finished word has interlacement graph exactly ``g``, and
    no realizing word is cut.  Budget: ``REALIZABLE_MAX_VERTICES``."""
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
    opened_at = [1] + [0] * (n - 1)  # parity just after each letter opened
    word = [0]

    def place(closed: int, parity: int) -> bool:
        if closed == done:
            return True
        for v in range(n):
            bit = 1 << v
            if parity & bit:
                if parity ^ opened_at[v] != nbr[v]:
                    continue
                now_closed = closed | bit
            elif (nbr[v] | bit) & closed:
                continue
            else:
                opened_at[v] = parity ^ bit
                now_closed = closed
            word.append(v)
            if place(now_closed, parity ^ bit):
                return True
            word.pop()
        return False

    return canonicalize(GaussCode((tuple(word),))) if place(0, 1) else None


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


@functools.lru_cache(maxsize=1 << 16)
def _children(can: CanonicalCode, max_vertices: int) -> tuple[CanonicalCode, ...]:
    """The distinct classes one move away from ``can`` within
    ``max_vertices``, in the order their first move comes in ``_moves``.

    Memoized, as a search meets the same class again and again, in one run
    and across runs.  An R1+ kink on side 1 is skipped: its child is side
    0's on the same site, which comes just before it.

    Memory: at most 2**16 entries.  An entry holds only references to
    canonical codes, about 186 + 8k bytes for k children (tracemalloc), and
    k is at most the class's move count, about 4n**2 at n crossings when
    increases fit the bound.  On the search benchmark k is 6.2 on average
    and at most 211, so a full memo takes about 15 MB, and 125 MB if every
    entry had 211 children.  The codes are shared with canonicalize's
    cache; one that cache has evicted stays alive here, at about 265 bytes.
    On the two searches of ``SEARCH_MAX_VISITED`` an entry took 263 and 272
    bytes, at 9.4 and 9.2 children."""
    d = to_framed(can)
    return tuple(dict.fromkeys(
        canonicalize(_apply(d, m)) for m in _moves(d, max_vertices) if m[0] != R1_UP or not m[2]
    ))


def _bfs(start: CanonicalCode, target: CanonicalCode | None, max_vertices: int, max_depth: int) -> SearchReport:
    """Breadth-first search over classes by their memoized ``_children``.
    Each class keeps only its parent.  A reached target's path is rebuilt
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
            for child in _children(can, max_vertices):
                if child in parents:
                    continue
                parents[child] = can
                min_seen = min(min_seen, child.chord_count)
                if target is not None and child == target:
                    return finish(True)
                if len(parents) > limit:
                    raise BudgetError(f"move search visited more than {limit} classes")
                nxt.append(child)
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
