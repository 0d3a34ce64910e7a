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
import itertools
import random
from dataclasses import dataclass
from importlib import resources

from .brackets import (
    alex_bracket,
    kauffman_bracket,
    kdelta,
    split_smoothing,
)
from .diagrams import (
    BudgetError,
    CanonicalCode,
    CodeError,
    GaussCode,
    PreconditionError,
    _matching_to_words,
    as_code,
    canonical_of,
    canonicalize,
    code_lines,
    component_count,
    from_framed,
    parse_gauss_code,
    to_framed,
)
from .moves import R1_UP, _apply, _labelled, _moves, find_r2
from .parity import (
    InterlacementGraph,
    component_parity,
    gaussian_parity,
    interlacement,
    source_sink_orientable,
)

REALIZABLE_MAX_VERTICES = 8

#: a move search raises ``BudgetError`` once it has visited more classes
#: than this.  A visited class keeps about 370 bytes alive: its canonical
#: code (about 290) and its parent link and frontier slot (75-87, measured
#: with tracemalloc and warm caches on ``explore_moves("a b c a b c", 7, 4)``
#: and ``("a b a c b c", 7, 3)``, 3,211 and 2,804 classes).  So 2**18
#: classes take about 100 MB, besides canonicalize's cache and the memo of
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
    can = canonical_of(code)
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
    can = canonical_of(code)
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
            if w in used:
                continue
            ok = True
            for prev, pw in assign.items():
                if (prev in n1[v]) != (pw in n2[w]):
                    ok = False
                    break
            if ok:
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
    cache; one that cache has evicted stays alive here, at about 290 bytes."""
    d = to_framed(can)
    return tuple(dict.fromkeys(
        canonical_of(_apply(d, m)) for m in _moves(d, max_vertices) if m[0] != R1_UP or not m[2]
    ))


def _bfs(start: CanonicalCode, target: CanonicalCode | None, max_vertices: int, max_depth: int) -> SearchReport:
    """Breadth-first search over classes by their memoized ``_children``.
    Each class keeps only its parent.  A reached target's path is rebuilt
    step by step: the move of a step is the first move of the parent's
    framed graph (labels ``0..n-1``) whose child is the step's class, which
    is the move that first reached it, and only these moves are labelled.
    Budget: ``SEARCH_MAX_VISITED`` classes."""
    for name, bound in (("max_vertices", max_vertices), ("max_depth", max_depth)):
        if not isinstance(bound, int):
            raise PreconditionError(f"{name} must be an int, got {bound!r}")
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
                move = next(m for m in _moves(d, max_vertices) if canonical_of(_apply(d, m)) == child)
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
    ca, cb = canonical_of(a), canonical_of(b)
    if ca.component_count != cb.component_count:
        raise PreconditionError("codes with different component counts are never equivalent")
    return _bfs(ca, cb, max_vertices, max_depth)


def explore_moves(a, max_vertices: int, max_depth: int) -> SearchReport:
    """Full bounded sweep from one code (no target).  The bounds must be
    ints, ``max_depth`` >= 0."""
    return _bfs(canonical_of(a), None, max_vertices, max_depth)


# ---------------------------------------------------------------------------
# Random generation


def random_diagram(n: int, k: int, seed) -> GaussCode:
    """Uniform over raw double-occurrence word arrangements with ``n``
    chords and ``k`` components: a uniform ordered composition of 2n into k
    positive word lengths plus a uniform perfect matching of positions.
    ``n = 0`` yields ``k`` free loops."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if n < 0 or k < 0:
        raise PreconditionError("n and k must be non-negative")
    if n == 0:
        return GaussCode((), k)
    if not 1 <= k <= 2 * n:
        raise PreconditionError(f"no {k}-component arrangement of {n} chords exists")
    cuts = sorted(rng.sample(range(1, 2 * n), k - 1))
    lengths = tuple(b - a for a, b in zip([0] + cuts, cuts + [2 * n]))
    free = list(range(2 * n))
    # pair the first free position with a uniform other one
    matching = [(free.pop(0), free.pop(rng.randrange(len(free)))) for _ in range(n)]
    return GaussCode(_matching_to_words(matching, lengths))


def random_moves(code, count: int, max_vertices: int, seed) -> GaussCode:
    """Apply ``count`` uniformly chosen applicable moves under the vertex
    budget; stops early only if no move applies."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    d = to_framed(code)
    for _ in range(count):
        moves = list(_moves(d, max_vertices))
        if not moves:
            break
        d = _apply(d, rng.choice(moves))
    return from_framed(d)


# ---------------------------------------------------------------------------
# Fixture search: a minimal 9-crossing knot diagram and its 8-crossing
# two-component split


def search_minimal_fixtures(limit: int | None = 1) -> list[tuple[GaussCode, GaussCode]]:
    """Scan the 8! normal forms ``x 1..8 x <permutation>`` for one-component
    9-chord diagrams satisfying:

    * every chord Gaussian-even, diagram R2-irreducible,
    * exactly one chord interlaced with all eight others,
    * the two-component split at that chord 8-vertex, R2-irreducible,
      all crossings inter-component, and source-sink orientable.

    Returns (knot diagram, its split) pairs; the prefilter keeps only
    permutations whose same-order pair counts are odd per chord (evenness)
    and below seven (unique hub).  It is kept in the library as the
    reproducible source of the shipped ``k1``/``l1`` fixtures: the
    acceptance tests rerun it, and ``scripts/find_fixtures.py`` wraps it."""
    out: list[tuple[GaussCode, GaussCode]] = []
    for pi in itertools.permutations(range(1, 9)):
        pos = {v: i for i, v in enumerate(pi)}
        ok = True
        for i in range(1, 9):
            deg = sum(1 for j in range(1, 9) if i != j and ((i < j) == (pos[i] < pos[j])))
            if deg % 2 == 0 or deg == 7:
                ok = False
                break
        if not ok:
            continue
        word = (0,) + tuple(range(1, 9)) + (0,) + pi
        code = GaussCode((word,))
        k1 = to_framed(code)
        if find_r2(k1):
            continue
        if gaussian_parity(code).odd:
            continue
        g = interlacement(code)
        if [v for v in g.vertices if g.degree(v) == 8] != [0]:
            continue
        l1 = split_smoothing(k1, 0)
        if l1.vertex_count != 8 or component_count(l1) != 2 or find_r2(l1):
            continue
        l1_code = from_framed(l1)
        if not component_parity(l1_code).all_odd():
            continue
        if not source_sink_orientable(l1):
            continue
        out.append((code, l1_code))
        if limit is not None and len(out) >= limit:
            break
    return out


def load_fixture(name: str) -> GaussCode:
    """Read a shipped fixture ('k1' or 'l1'): Gauss-code text, '#' comments."""
    text = resources.files("freeknot.fixtures").joinpath(f"{name}.gauss").read_text()
    lines = code_lines(text)
    if len(lines) != 1:
        raise CodeError(f"fixture {name!r} must contain exactly one code line")
    return parse_gauss_code(lines[0])
