"""Reidemeister moves on framed 4-valent diagrams.

Detection is slot-level: a kink is an edge joining two non-opposite slots of
one vertex, a bigon is a vertex pair joined by two edges that are
non-opposite at both ends, and a triangle is a vertex triple pairwise joined
by edges that are non-opposite at each shared vertex.  Application rewires
the perfect matching; strand pieces that close up vertex-free become free
loops.

Increase sites are strand pieces: an existing edge, or a free loop.  A free
loop site is written ``("loop", i)`` with ``i`` in {0, 1}: it names the
(i+1)-th free loop, which must exist, so two sites select distinct
(interchangeable) loops; passing the same loop site twice to the R2 increase
pushes a circle across itself.

Moves are integer inside and labelled only at the public edge.  ``_moves``
enumerates a diagram's moves as ``(kind, sites, selector)`` on the integer
matching of ``FramedDiagram``, a site being an edge ``(h, g)`` or ``(~i, ~i)``
for free loop ``i``, and ``_apply`` is the one kernel that rewires them.
The finders label these moves as ``MoveInstance``s of vertex names and
``(vertex, slot)`` half-edges; the public applies read each labelled site
once into an integer edge, oriented from its named vertex, check it on
``mate`` and call the kernel.  Increases lay a strand along each site with
``diagrams.thread``, through fresh vertices appended after the old ones,
which move into label order only when a fresh id sorts before an old label.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .diagrams import (
    CanonicalCode,
    CodeError,
    FramedDiagram,
    GaussCode,
    PAIRING_A,
    PAIRING_B,
    PAIRING_FLAT,
    canonicalize,
    fresh_vertex_ids,
    remove_vertex,
    renumber,
    splice_out_at,
    thread,
    to_framed,
)

R1_DOWN = "r1-"
R1_UP = "r1+"
R2_DOWN = "r2-"
R2_UP = "r2+"
R3 = "r3"

PATTERN_PARALLEL = "parallel"
PATTERN_CROSSED = "crossed"

#: increase site for one free loop (index distinguishes two distinct loops)
LOOP_SITE = ("loop", 0)
LOOP_SITE_2 = ("loop", 1)
_LOOPS = ((~0, ~0), (~1, ~1))


@dataclass(frozen=True)
class MoveInstance:
    """A concrete applicable move.

    kind      one of r1-, r1+, r2-, r2+, r3
    vertices  r1-: (v,); r2-: (u, v); r3: (u, v, w)
    sites     r1-: (loop_edge,); r2-: (e1, e2);
              r3: (e_uv, e_uw, e_vw) in that role order;
              r1+: (edge-or-loop-site,); r2+: (site1, site2)
    selector  r1+: side in {0, 1}; r2+: pattern string
    """

    kind: str
    vertices: tuple = ()
    sites: tuple = ()
    selector: object = None


def _edge(d: FramedDiagram, e, ends=None, kind: str = "") -> tuple[int, int]:
    """The integer ends of the edge ``e`` of ``d``: in the order given, or
    from vertex ``ends[0]`` to vertex ``ends[1]``, which it must join, as a
    site of a ``kind`` move."""
    try:
        (u, s), (v, t) = e
        h, g = 4 * d.index(u) + s, 4 * d.index(v) + t
        found = s in range(4) and t in range(4) and d.mate[h] == g
    except (TypeError, ValueError):
        found = False
    if not found:
        raise CodeError(f"edge {e!r} not in diagram")
    if ends is None or (u, v) == ends:
        return h, g
    if (v, u) == ends:
        return g, h
    raise CodeError(f"invalid {kind} site: edge {e!r} does not join {ends[0]!r} and {ends[1]!r}")


def _parts(m: MoveInstance, vertex_count: int, site_count: int) -> tuple:
    """The vertices and the sites of ``m``, which must be as many as given."""
    if len(m.vertices) != vertex_count or len(m.sites) != site_count:
        raise CodeError(f"a {m.kind} move takes {vertex_count} vertices and {site_count} sites: {m!r}")
    return m.vertices, m.sites


def _site(d: FramedDiagram, site) -> tuple[int, int]:
    """The integer site of an increase site; a free loop must exist."""
    if site not in (LOOP_SITE, LOOP_SITE_2):
        return _edge(d, site)
    if d.free_loops <= site[1]:
        raise CodeError(f"no free loop for site {site!r}")
    return _LOOPS[site[1]]


def _labelled(d: FramedDiagram, move) -> MoveInstance:
    """The ``MoveInstance`` of the integer move ``move`` of ``d``."""
    kind, sites, selector = move
    labelled = tuple((LOOP_SITE, LOOP_SITE_2)[~h] if h < 0 else (d.half_edge(h), d.half_edge(g))
                     for h, g in sites)
    if kind in (R1_UP, R2_UP):
        return MoveInstance(kind, (), labelled, selector)
    # a decrease or a slide names the vertices of its sites in increasing order
    vertices = sorted({h >> 2 for e in sites for h in e})
    return MoveInstance(kind, tuple(d.labels[i] for i in vertices), labelled, selector)


# ---------------------------------------------------------------------------
# The integer moves of a diagram


def _edges_between(d: FramedDiagram):
    """Map vertex index pair ``(i, j)``, ``i < j``, to the sorted integer
    edges ``(h, g)`` joining them, ``h`` at ``i``."""
    by_pair: dict = {}
    for h, g in enumerate(d.mate):
        if h >> 2 < g >> 2:
            by_pair.setdefault((h >> 2, g >> 2), []).append((h, g))
    return by_pair


def _kinks(mate: list):
    """R1-: one per vertex carrying a loop edge (an edge joining two of its
    own non-opposite slots), the loop at its first slot."""
    for i in range(len(mate) >> 2):
        for h in range(4 * i, 4 * i + 4):
            g = mate[h]
            if g >> 2 == i and g != h ^ 2:
                yield R1_DOWN, ((h, g),), None
                break


def _bigons(mate: list):
    """R2-: vertex pairs joined by two edges occupying non-opposite slots
    at both ends, by lower vertex, then upper vertex, then the slot pair at
    the lower vertex in the order (0, 1), (0, 3), (1, 2), (2, 3)."""
    for h in range(0, len(mate), 4):
        hits = ()  # grown only on a hit: most vertices have no bigon
        for s, t in ((0, 1), (0, 3), (1, 2), (2, 3)):
            a, b = mate[h + s], mate[h + t]
            if a >> 2 == b >> 2 > h >> 2 and a ^ b != 2:
                hits += ((a >> 2, (h + s, a), (h + t, b)),)
        if hits:
            for _, e1, e2 in sorted(hits):
                yield R2_DOWN, (e1, e2), None


def _triangles(by_pair: dict, vertex_count: int):
    """R3: vertex triples pairwise joined by edges, the two triangle edges
    non-opposite at every corner; sites (e_uv, e_uw, e_vw)."""
    for (i, j), uv in sorted(by_pair.items()):
        for k in range(j + 1, vertex_count):
            uw, vw = by_pair.get((i, k)), by_pair.get((j, k))
            if not uw or not vw:
                continue
            # an edge (h, g) of a pair has h at its lower vertex
            for e_uv in uv:
                for e_uw in uw:
                    if e_uw[0] ^ e_uv[0] == 2:
                        continue
                    for e_vw in vw:
                        if e_vw[0] ^ e_uv[1] != 2 and e_vw[1] ^ e_uw[1] != 2:
                            yield R3, (e_uv, e_uw, e_vw), None


def _increases(d: FramedDiagram, max_vertices: int):
    """R1+ on every edge and the first free loop, then R2+ on every
    unordered pair of sites, while the result keeps within ``max_vertices``."""
    sites = [(h, g) for h, g in enumerate(d.mate) if h < g] + list(_LOOPS[:d.free_loops])
    if d.vertex_count + 1 <= max_vertices:
        for site in sites:
            if site != _LOOPS[1]:  # loops interchangeable for kinking
                yield R1_UP, (site,), 0
                yield R1_UP, (site,), 1
    if d.vertex_count + 2 <= max_vertices:
        for i, s in enumerate(sites):
            for t in sites[i:]:
                yield R2_UP, (s, t), PATTERN_PARALLEL
                yield R2_UP, (s, t), PATTERN_CROSSED


def _moves(d: FramedDiagram, max_vertices: int):
    """Every move of ``d`` whose result keeps within ``max_vertices``, as an
    integer move: R1-, R2-, R3, R1+, R2+, each kind in scan order."""
    by_pair = _edges_between(d)
    yield from _kinks(d.mate)
    yield from _bigons(d.mate)
    yield from _triangles(by_pair, d.vertex_count)
    yield from _increases(d, max_vertices)


# ---------------------------------------------------------------------------
# The kernel


def _grown(d: FramedDiagram, mate: list, free_loops: int, count: int) -> FramedDiagram:
    """``d`` grown to the matching ``mate``, whose last ``count`` vertices
    are new: they get fresh ids and are merged into label order.  Fresh
    integer ids follow the old ones, so only string ids can move."""
    fresh = fresh_vertex_ids(d, count)
    labels = d.labels + tuple(fresh)
    if d.labels and min(fresh) < d.labels[-1]:
        key = labels.__getitem__
        old = len(d.labels)
        order = list(heapq.merge(range(old), sorted(range(old, len(labels)), key=key), key=key))
        labels, mate = tuple(map(key, order)), renumber(mate, order)
    return FramedDiagram(labels, mate, free_loops, validate=False)


def _apply(d: FramedDiagram, move) -> FramedDiagram:
    """The result of the integer move ``move`` on ``d``: a move ``_moves``
    gave, or one the public applies checked."""
    kind, sites, selector = move
    if kind == R1_DOWN:
        ((h, g),) = sites
        # the smoothing that does NOT pair the loop slots together absorbs it
        return splice_out_at(d, {h >> 2: PAIRING_B if h ^ g == 1 else PAIRING_A})
    if kind == R2_DOWN:
        # each transit strand is spliced straight through
        (h, g), _ = sites
        return splice_out_at(d, {h >> 2: PAIRING_FLAT, g >> 2: PAIRING_FLAT})
    if kind == R3:
        # each external end hops along its triangle edge, onto the slot that edge vacates
        hop = {h ^ 2: g for h, g in sites + tuple((g, h) for h, g in sites)}
        mate = d.mate[:]
        for h, g in hop.items():
            x = d.mate[h]
            mate[g] = y = hop.get(x, x)
            mate[y] = g
        # the slots the external ends vacate form the new triangle
        for h, g in sites:
            mate[h ^ 2], mate[g ^ 2] = g ^ 2, h ^ 2
        return FramedDiagram(d.labels, mate, d.free_loops, validate=False)
    # an increase appends its fresh vertices u (and v) and lays a strand
    # through them along each site; old half-edges keep their numbers
    u = len(d.mate)
    if kind == R1_UP:
        strands = [[u, u + 3] if selector and sites[0][0] >= 0 else [u, u + 1]]
    else:
        v = u + 4
        sites = sorted(sites, key=lambda e: e[0] < 0)  # an edge before a loop
        second = [u + 1, v + 1] if selector == PATTERN_PARALLEL else [v + 1, u + 1]
        strands = [[u, v] + second] if sites[0] == sites[1] else [[u, v], second]
    mate = d.mate + [-1] * (4 * len(sites))  # one fresh vertex for R1+, two for R2+
    free = d.free_loops
    for site, passes in zip(sites, strands):  # equal sites lay one strand
        if site[0] < 0:  # a free loop: the strand closes on itself
            free, site = free - 1, None
        thread(mate, passes, site)
    return _grown(d, mate, free, len(sites))


# ---------------------------------------------------------------------------
# The labelled moves: finders and checked applies


def find_r1(d: FramedDiagram) -> list[MoveInstance]:
    """One instance per vertex carrying a loop edge (an edge joining two of
    its own non-opposite slots)."""
    return [_labelled(d, m) for m in _kinks(d.mate)]


def find_r2(d: FramedDiagram) -> list[MoveInstance]:
    """Bigons: unordered vertex pairs joined by two edges occupying
    non-opposite slots at both ends."""
    return [_labelled(d, m) for m in _bigons(d.mate)]


def find_r3(d: FramedDiagram) -> list[MoveInstance]:
    """Triangles: vertex triples pairwise joined by edges, the two triangle
    edges non-opposite at every corner.  Sites carry (e_uv, e_uw, e_vw)."""
    return [_labelled(d, m) for m in _triangles(_edges_between(d), d.vertex_count)]


def find_increases(d: FramedDiagram, max_vertices: int) -> list[MoveInstance]:
    """All R1+/R2+ instances whose result stays within ``max_vertices``."""
    return [_labelled(d, m) for m in _increases(d, max_vertices)]


def find_all_moves(d: FramedDiagram, max_vertices: int) -> list[MoveInstance]:
    return [_labelled(d, m) for m in _moves(d, max_vertices)]


def apply_r1_decrease(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Erase the kink: the loop edge is absorbed and the two remaining
    strand ends are spliced straight."""
    (v,), (loop,) = _parts(m, 1, 1)
    h, g = _edge(d, loop, (v, v), "R1")
    if h ^ g == 2:
        raise CodeError("loop edge joins opposite slots; not an R1 site")
    return _apply(d, (R1_DOWN, ((h, g),), None))


def apply_r1_increase(d: FramedDiagram, site, side: int = 0) -> FramedDiagram:
    """Put a kink on an edge, or on a free loop (site=("loop", 0))."""
    if side not in (0, 1):
        raise CodeError("side must be 0 or 1")
    return _apply(d, (R1_UP, (_site(d, site),), side))


def apply_r2_decrease(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Remove the bigon; each transit strand is spliced straight through."""
    (u, v), sites = _parts(m, 2, 2)
    (h1, g1), (h2, g2) = ends = tuple(_edge(d, e, (u, v), "R2") for e in sites)
    if h1 >> 2 == g1 >> 2:
        raise CodeError(f"invalid R2 site {m!r}")
    if h1 == h2:
        raise CodeError(f"one edge given as both R2 sites: {m!r}")
    if h1 ^ h2 == 2 or g1 ^ g2 == 2:
        raise CodeError("edge pair is opposite at an endpoint; not a bigon")
    return _apply(d, (R2_DOWN, ends, None))


def apply_r2_increase(d: FramedDiagram, site1, site2, pattern: str = PATTERN_PARALLEL) -> FramedDiagram:
    """Push two strand pieces across each other, creating two crossings.

    Sites are edges or free-loop tokens; passing the same edge (or the same
    loop site) twice pushes a strand across itself.  ``pattern`` selects
    between the two relative overlays where they differ."""
    if pattern not in (PATTERN_PARALLEL, PATTERN_CROSSED):
        raise CodeError(f"unknown pattern {pattern!r}")
    e1, e2 = _site(d, site1), _site(d, site2)
    if e1 != e2 and set(e1) & set(e2):
        raise CodeError("an edge site given twice must have its ends in the same order")
    return _apply(d, (R2_UP, (e1, e2), pattern))


def apply_r3(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Slide a strand across the opposite crossing of the triangle.  The
    move is an involution on its site and changes no component or vertex
    counts."""
    (u, v, w), sites = _parts(m, 3, 3)
    ends = tuple(_edge(d, e, pair, "R3") for e, pair in zip(sites, ((u, v), (u, w), (v, w))))
    (a, a2), (b, b2), (c, c2) = ends
    if len({a >> 2, a2 >> 2, b2 >> 2}) < 3:
        raise CodeError(f"invalid R3 site {m!r}")
    if b == a ^ 2 or c == a2 ^ 2 or c2 == b2 ^ 2:
        raise CodeError(f"edges are opposite at a corner; not a triangle: {m!r}")
    return _apply(d, (R3, ends, None))


# ---------------------------------------------------------------------------
# Dispatch, reduction, neighborhoods


def apply_move(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    if m.kind == R1_DOWN:
        return apply_r1_decrease(d, m)
    if m.kind == R1_UP:
        _, (site,) = _parts(m, 0, 1)
        return apply_r1_increase(d, site, m.selector)
    if m.kind == R2_DOWN:
        return apply_r2_decrease(d, m)
    if m.kind == R2_UP:
        _, sites = _parts(m, 0, 2)
        return apply_r2_increase(d, *sites, m.selector)
    if m.kind == R3:
        return apply_r3(d, m)
    raise CodeError(f"unknown move kind {m.kind!r}")


_NON_OPPOSITE = ((0, 1), (0, 3), (1, 2), (2, 3))


def _decrease(mate: list, free_loops: int, kinks: bool) -> FramedDiagram:
    """The diagram ``mate``, ``free_loops`` with every bigon deleted, and
    every kink too when ``kinks``; ``mate`` is reduced in place.

    This is the one loop that deletes either.  A bigon's two vertices are
    removed with the flat pairing, a kink's vertex with the pairing that
    does not close its loop (``remove_vertex``, which marks a removed
    vertex's slots -1).  Vertices are checked lowest first, and after a
    deletion only those whose edges changed are checked again.  The kept
    vertices are renumbered once and labelled by their old numbers."""
    todo = list(range((len(mate) >> 2) - 1, -1, -1))
    while todo:
        i = todo.pop()
        h = 4 * i
        if mate[h] < 0:
            continue
        ends = mate[h:h + 4]
        # a kink: an edge joining two non-opposite slots of ``i``
        kink = kinks and next((x ^ g for x, g in enumerate(ends, h) if g >> 2 == i and g ^ x != 2), 0)
        if kink:
            free_loops += remove_vertex(mate, i, PAIRING_B if kink == 1 else PAIRING_A)
        else:
            for s, t in _NON_OPPOSITE:
                a, b = ends[s], ends[t]
                # two edges to one other vertex, non-opposite at both ends
                if a >> 2 == b >> 2 != i and a ^ b != 2:
                    ends += mate[a ^ 2], mate[b ^ 2]
                    free_loops += (remove_vertex(mate, i, PAIRING_FLAT)
                                   + remove_vertex(mate, a >> 2, PAIRING_FLAT))
                    break
            else:
                continue
        todo.extend([x >> 2 for x in ends if mate[x] >= 0])
    kept = [i for i in range(len(mate) >> 2) if mate[4 * i] >= 0]
    return FramedDiagram(tuple(kept), renumber(mate, kept), free_loops, validate=False)


def _reduce(mate: list, free_loops: int) -> CanonicalCode:
    """``reduce_r2`` of an integer matching, which it reduces in place."""
    return canonicalize(_decrease(mate, free_loops, kinks=False))


def _untangle(d: FramedDiagram) -> FramedDiagram:
    """``d`` with every kink and bigon deleted, for the brackets, which no
    move changes.  No canonical form is built.  Neither deletion changes
    which kept chords a kept chord interlaces, or which circles its
    passages lie on, so every kept chord keeps its Gaussian and its
    component parity."""
    u = _decrease(d.mate[:], d.free_loops, kinks=True)
    return FramedDiagram(tuple(map(d.labels.__getitem__, u.labels)), u.mate, u.free_loops, validate=False)


def reduce_r2(code: GaussCode | CanonicalCode | FramedDiagram):
    """Apply decreasing R2 moves until none is possible.

    Returns ``(CanonicalCode, saw_free_loop)``; the flag records whether any
    intermediate or final diagram carried a free loop, which is whether the
    result has one, as free loops never vanish under these moves.  Each
    move splices out the two vertices of a bigon with the flat re-pairing,
    continuing both strands straight through.  The result is independent
    of the reduction order: the tests compare it with the one-move-at-a-time
    oracle on random orders of the moves, and with itself on random
    relabellings of the input, which reorder the vertices it checks.
    Kinks are kept: the state sums and ``delta`` reduce their terms by
    this, and a term's kinks are part of it.  ``_untangle`` deletes kinks
    too, for the brackets' input."""
    d = to_framed(code)
    reduced = _reduce(d.mate[:], d.free_loops)
    return reduced, reduced.free_loops > 0


def neighbors(d: FramedDiagram, allow_increase: int = 0) -> list[FramedDiagram]:
    """Every result of a single move, increases admitted while the vertex
    count stays within ``current + allow_increase``; deduplicated by
    canonical code and sorted by it.  The search does not call it: it keeps
    only the child classes, which ``analysis._children`` yields one by one
    with no framed graph kept, and stores in ``analysis._memo`` once a
    class's moves are all applied.  This one-step neighbourhood is kept as
    public API, and the acceptance tests check it."""
    results: dict[CanonicalCode, FramedDiagram] = {}
    for move in _moves(d, d.vertex_count + allow_increase):
        if move[0] == R1_UP and move[2] == 1:
            continue  # the two kink chiralities are isomorphic
        nd = _apply(d, move)
        results.setdefault(canonicalize(nd), nd)
    return [results[c] for c in sorted(results)]
