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
pushes a circle across itself.  Moves name vertices and ``(vertex, slot)``
half-edges; they act on the integer matching of ``FramedDiagram``.  Each
site is read once into an integer edge, oriented from its named vertex, and
a move is checked and rewired on ``mate`` alone.  The increases append their
fresh vertices, link them to the site half-edges as read, and then renumber
the vertices into label order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .diagrams import (
    CanonicalCode,
    CodeError,
    FramedDiagram,
    GaussCode,
    PAIRING_A,
    PAIRING_B,
    PAIRING_FLAT,
    canonical_of,
    fresh_vertex_ids,
    renumber,
    splice_out,
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


def _labelled(d: FramedDiagram, e) -> tuple:
    return tuple(d.half_edge(h) for h in e)


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


def _site(d: FramedDiagram, site):
    """The integer edge of an increase site, or ``None`` for a free-loop
    site, whose loop must exist."""
    if site not in (LOOP_SITE, LOOP_SITE_2):
        return _edge(d, site)
    if d.free_loops <= site[1]:
        raise CodeError(f"no free loop for site {site!r}")
    return None


def _link(mate: list, pairs):
    for a, b in pairs:
        mate[a], mate[b] = b, a


def _grown(d: FramedDiagram, count: int):
    """The labels and matching of ``d`` with ``count`` fresh vertices
    appended, their slots unmatched, and the first half-edge of each fresh
    vertex.  Old half-edges keep their numbers."""
    n = len(d.mate)
    return (d.labels + tuple(fresh_vertex_ids(d, count)), d.mate + [-1] * (4 * count),
            range(n, n + 4 * count, 4))


def _in_label_order(labels: tuple, mate: list, free_loops: int) -> FramedDiagram:
    """The grown diagram with its vertices renumbered by increasing label."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    # fresh integer ids follow the old ones, so integer diagrams skip this
    if order != list(range(len(labels))):
        labels, mate = tuple(labels[i] for i in order), renumber(mate, order)
    return FramedDiagram(labels, mate, free_loops, validate=False)


def _edges_between(d: FramedDiagram):
    """Map vertex index pair ``(i, j)``, ``i < j``, to the sorted integer
    edges ``(h, g)`` joining them, ``h`` at ``i``."""
    by_pair: dict = {}
    for h, g in enumerate(d.mate):
        if h >> 2 < g >> 2:
            by_pair.setdefault((h >> 2, g >> 2), []).append((h, g))
    return by_pair


# ---------------------------------------------------------------------------
# R1


def find_r1(d: FramedDiagram) -> list[MoveInstance]:
    """One instance per vertex carrying a loop edge (an edge joining two of
    its own non-opposite slots)."""
    out = []
    for i, v in enumerate(d.labels):
        loops = [h for h in range(4 * i, 4 * i + 4) if d.mate[h] >> 2 == i and d.mate[h] != h ^ 2]
        if loops:
            out.append(MoveInstance(R1_DOWN, (v,), (_labelled(d, (loops[0], d.mate[loops[0]])),)))
    return out


def apply_r1_decrease(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Erase the kink: the loop edge is absorbed and the two remaining
    strand ends are spliced straight."""
    (v,), (loop,) = _parts(m, 1, 1)
    h, g = _edge(d, loop, (v, v), "R1")
    if h ^ g == 2:
        raise CodeError("loop edge joins opposite slots; not an R1 site")
    # the smoothing that does NOT pair the loop slots together absorbs it
    pairing = PAIRING_B if h ^ g == 1 else PAIRING_A
    return splice_out(d, {v: pairing})


def apply_r1_increase(d: FramedDiagram, site, side: int = 0) -> FramedDiagram:
    """Put a kink on an edge, or on a free loop (site=("loop", 0))."""
    if side not in (0, 1):
        raise CodeError("side must be 0 or 1")
    e = _site(d, site)
    labels, mate, (u,) = _grown(d, 1)
    if e is None:
        _link(mate, [(u + 1, u + 2), (u + 3, u)])
    else:
        h0, h1 = e
        _link(mate, [(h0, u), (u + 2, u + 1), (u + 3, h1)] if side == 0
              else [(h0, u), (u + 2, u + 3), (u + 1, h1)])
    return _in_label_order(labels, mate, d.free_loops - (e is None))


# ---------------------------------------------------------------------------
# R2


def find_r2(d: FramedDiagram) -> list[MoveInstance]:
    """Bigons: unordered vertex pairs joined by two edges occupying
    non-opposite slots at both ends."""
    out = []
    for (i, j), edges in sorted(_edges_between(d).items()):
        for k, (h1, g1) in enumerate(edges):
            for h2, g2 in edges[k + 1:]:
                if h1 ^ h2 != 2 and g1 ^ g2 != 2:
                    out.append(MoveInstance(R2_DOWN, (d.labels[i], d.labels[j]),
                                            (_labelled(d, (h1, g1)), _labelled(d, (h2, g2)))))
    return out


def apply_r2_decrease(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Remove the bigon; each transit strand is spliced straight through."""
    (u, v), sites = _parts(m, 2, 2)
    (h1, g1), (h2, g2) = (_edge(d, e, (u, v), "R2") for e in sites)
    if h1 >> 2 == g1 >> 2:
        raise CodeError(f"invalid R2 site {m!r}")
    if h1 == h2:
        raise CodeError(f"one edge given as both R2 sites: {m!r}")
    if h1 ^ h2 == 2 or g1 ^ g2 == 2:
        raise CodeError("edge pair is opposite at an endpoint; not a bigon")
    return splice_out(d, {u: PAIRING_FLAT, v: PAIRING_FLAT})


def _strand_sites(d: FramedDiagram) -> list:
    return d.edges() + [LOOP_SITE, LOOP_SITE_2][:d.free_loops]


def apply_r2_increase(d: FramedDiagram, site1, site2, pattern: str = PATTERN_PARALLEL) -> FramedDiagram:
    """Push two strand pieces across each other, creating two crossings.

    Sites are edges or free-loop tokens; passing the same edge (or the same
    loop site) twice pushes a strand across itself.  ``pattern`` selects
    between the two relative overlays where they differ."""
    if pattern not in (PATTERN_PARALLEL, PATTERN_CROSSED):
        raise CodeError(f"unknown pattern {pattern!r}")
    e1, e2 = _site(d, site1), _site(d, site2)
    if e1 and e2 and e1 != e2 and set(e1) & set(e2):
        raise CodeError("an edge site given twice must have its ends in the same order")
    labels, mate, (u, v) = _grown(d, 2)
    parallel = pattern == PATTERN_PARALLEL
    free = d.free_loops
    if e1 is None and e2 is None and site1 == site2:
        # one circle across itself: interlaced or nested double point pair
        free -= 1
        if parallel:
            pairs = [(u + 2, v), (v + 2, u + 1), (u + 3, v + 1), (v + 3, u)]
        else:
            pairs = [(u + 2, v), (v + 2, v + 1), (v + 3, u + 1), (u + 3, u)]
    elif e1 is None and e2 is None:
        free -= 2
        pairs = [(u + 2, v), (v + 2, u), (u + 3, v + 1), (v + 3, u + 1)]
    elif e1 is None or e2 is None:
        free -= 1
        h0, h1 = e1 or e2
        pairs = [(h0, u), (u + 2, v), (v + 2, h1), (u + 3, v + 1), (v + 3, u + 1)]
    elif e1 == e2:
        h0, h1 = e1
        if parallel:
            pairs = [(h0, u), (u + 2, v), (v + 2, u + 1), (u + 3, v + 1), (v + 3, h1)]
        else:
            pairs = [(h0, u), (u + 2, v), (v + 2, v + 1), (v + 3, u + 1), (u + 3, h1)]
    else:
        (h1a, h1b), (h2a, h2b) = e1, e2
        pairs = [(h1a, u), (u + 2, v), (v + 2, h1b)]
        if parallel:
            pairs += [(h2a, u + 1), (u + 3, v + 1), (v + 3, h2b)]
        else:
            pairs += [(h2a, v + 1), (v + 3, u + 1), (u + 3, h2b)]
    _link(mate, pairs)
    return _in_label_order(labels, mate, free)


# ---------------------------------------------------------------------------
# R3


def find_r3(d: FramedDiagram) -> list[MoveInstance]:
    """Triangles: vertex triples pairwise joined by edges, the two triangle
    edges non-opposite at every corner.  Sites carry (e_uv, e_uw, e_vw)."""
    by_pair = _edges_between(d)
    out = []
    for (i, j), uv in sorted(by_pair.items()):
        for k in range(j + 1, d.vertex_count):
            uw, vw = by_pair.get((i, k)), by_pair.get((j, k))
            if not uw or not vw:
                continue
            # an edge (h, g) of a pair has h at its lower vertex
            for e_uv in uv:
                for e_uw in uw:
                    if e_uw[0] ^ e_uv[0] == 2:
                        continue
                    for e_vw in vw:
                        if e_vw[0] ^ e_uv[1] == 2 or e_vw[1] ^ e_uw[1] == 2:
                            continue
                        out.append(MoveInstance(R3, (d.labels[i], d.labels[j], d.labels[k]),
                                                tuple(_labelled(d, e) for e in (e_uv, e_uw, e_vw))))
    return out


def apply_r3(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Slide a strand across the opposite crossing of the triangle.  The
    move is an involution on its site and changes no component or vertex
    counts."""
    (u, v, w), sites = _parts(m, 3, 3)
    ends = [_edge(d, e, pair, "R3") for e, pair in zip(sites, ((u, v), (u, w), (v, w)))]
    (a, a2), (b, b2), (c, c2) = ends
    if len({a >> 2, a2 >> 2, b2 >> 2}) < 3:
        raise CodeError(f"invalid R3 site {m!r}")
    if b == a ^ 2 or c == a2 ^ 2 or c2 == b2 ^ 2:
        raise CodeError(f"edges are opposite at a corner; not a triangle: {m!r}")
    # each external end hops along its triangle edge, onto the slot that edge vacates
    hop = {h ^ 2: g for h, g in ends + [(g, h) for h, g in ends]}
    mate = d.mate[:]
    for h, g in hop.items():
        x = d.mate[h]
        mate[g] = y = hop.get(x, x)
        mate[y] = g
    # the slots the external ends vacate form the new triangle
    _link(mate, [(a ^ 2, a2 ^ 2), (b ^ 2, b2 ^ 2), (c ^ 2, c2 ^ 2)])
    return FramedDiagram(d.labels, mate, d.free_loops, validate=False)


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


def find_increases(d: FramedDiagram, max_vertices: int) -> list[MoveInstance]:
    """All R1+/R2+ instances whose result stays within ``max_vertices``."""
    out = []
    sites = _strand_sites(d)
    if d.vertex_count + 1 <= max_vertices:
        for site in sites:
            if site == LOOP_SITE_2:
                continue  # loops interchangeable for kinking
            for side in (0, 1):
                out.append(MoveInstance(R1_UP, (), (site,), side))
    if d.vertex_count + 2 <= max_vertices:
        for i in range(len(sites)):
            for j in range(i, len(sites)):
                for pattern in (PATTERN_PARALLEL, PATTERN_CROSSED):
                    out.append(MoveInstance(R2_UP, (), (sites[i], sites[j]), pattern))
    return out


def find_all_moves(d: FramedDiagram, max_vertices: int) -> list[MoveInstance]:
    return find_r1(d) + find_r2(d) + find_r3(d) + find_increases(d, max_vertices)


def _bigons(mate: list, first_only: bool) -> list:
    """Bigons of an integer matching as vertex pairs ``(i, j)`` joined by two
    edges at adjacent slots of both, in scan order: one entry per end and
    edge pair, so a bigon may repeat.  ``first_only`` stops at the first."""
    out = []
    for i in range(len(mate) // 4):
        for s in range(4):
            a, b = mate[4 * i + s], mate[4 * i + (s + 1) % 4]
            if a >> 2 == b >> 2 != i and (a ^ b) & 1:
                out.append((i, a >> 2))
                if first_only:
                    return out
    return out


def reduce_r2(code: GaussCode | CanonicalCode | FramedDiagram, _rng: random.Random | None = None):
    """Apply decreasing R2 moves until none is possible.

    Returns ``(CanonicalCode, saw_free_loop)``; the flag records whether any
    intermediate or final diagram carried a free loop, which is whether the
    result has one, as free loops never vanish under these moves.  Each
    move splices out the two vertices of a bigon with the flat re-pairing,
    continuing both strands straight through.  The result is
    independent of the reduction order (tested, not assumed); the default
    order takes the first bigon in scan order, ``_rng`` picks among all."""
    d = to_framed(code)
    while bigons := _bigons(d.mate, _rng is None):
        pair = bigons[0] if _rng is None else _rng.choice(bigons)
        d = splice_out(d, {d.labels[i]: PAIRING_FLAT for i in pair})
    return canonical_of(d), d.free_loops > 0


def neighbors(d: FramedDiagram, allow_increase: int = 0) -> list[FramedDiagram]:
    """Every result of a single move, increases admitted while the vertex
    count stays within ``current + allow_increase``; deduplicated by
    canonical code and sorted by it.  The search walks classes on its own
    loop; this one-step neighbourhood is kept as public API, and the
    acceptance tests check it."""
    results: dict[CanonicalCode, FramedDiagram] = {}
    for m in find_all_moves(d, d.vertex_count + allow_increase):
        if m.kind == R1_UP and m.selector == 1:
            continue  # the two kink chiralities are isomorphic
        nd = apply_move(d, m)
        results.setdefault(canonical_of(nd), nd)
    return [results[c] for c in sorted(results)]
