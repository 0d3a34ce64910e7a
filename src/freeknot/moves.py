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
half-edges; they act on the integer matching of ``FramedDiagram``.
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


def _edge_key(h1, h2):
    return (h1, h2) if h1 < h2 else (h2, h1)


def _slot_at(edge, v):
    """Slot the edge occupies at vertex v (smaller slot if it is a loop)."""
    for h in edge:
        if h[0] == v:
            return h[1]
    raise CodeError(f"edge {edge!r} does not touch vertex {v!r}")


def _labelled(d: FramedDiagram, e) -> tuple:
    return tuple(d.half_edge(h) for h in e)


def _edge(d: FramedDiagram, e) -> tuple[int, int]:
    """The integer ends of the edge ``e`` of ``d``, in the order given."""
    try:
        (u, s), (v, t) = e
        if s in range(4) and t in range(4):
            h, g = 4 * d.index(u) + s, 4 * d.index(v) + t
            if d.mate[h] == g:
                return h, g
    except (TypeError, ValueError):
        pass
    raise CodeError(f"edge {e!r} not in diagram")


def _check_loop_site(d: FramedDiagram, site):
    if d.free_loops <= site[1]:
        raise CodeError(f"no free loop for site {site!r}")


def _link(mate: list, pairs):
    for a, b in pairs:
        mate[a], mate[b] = b, a


def _grown(d: FramedDiagram, count: int):
    """``d`` with ``count`` fresh vertices merged into its labels, their
    slots unmatched.  Returns the labels, the matching, the new number of
    each old half-edge, and the first half-edge of each fresh vertex."""
    fresh = fresh_vertex_ids(d, count)
    labels = tuple(sorted(d.labels + tuple(fresh)))
    base = {v: 4 * i for i, v in enumerate(labels)}
    moved = [base[d.labels[h >> 2]] | h & 3 for h in range(len(d.mate))]
    mate = [-1] * (4 * len(labels))
    for h, g in enumerate(d.mate):
        mate[moved[h]] = moved[g]
    return labels, mate, moved, [base[v] for v in fresh]


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
    (v,) = m.vertices
    (loop,) = m.sites
    h, g = _edge(d, loop)
    if h >> 2 != g >> 2 or d.labels[h >> 2] != v:
        raise CodeError(f"invalid R1 site {m!r}")
    if h ^ g == 2:
        raise CodeError("loop edge joins opposite slots; not an R1 site")
    # the smoothing that does NOT pair the loop slots together absorbs it
    pairing = PAIRING_B if h ^ g == 1 else PAIRING_A
    return splice_out(d, {v: pairing})


def apply_r1_increase(d: FramedDiagram, site, side: int = 0) -> FramedDiagram:
    """Put a kink on an edge, or on a free loop (site=("loop", 0))."""
    if side not in (0, 1):
        raise CodeError("side must be 0 or 1")
    loop = site in (LOOP_SITE, LOOP_SITE_2)
    if loop:
        _check_loop_site(d, site)
    else:
        ends = _edge(d, site)
    labels, mate, moved, (u,) = _grown(d, 1)
    if loop:
        _link(mate, [(u + 1, u + 2), (u + 3, u)])
    else:
        h0, h1 = moved[ends[0]], moved[ends[1]]
        _link(mate, [(h0, u), (u + 2, u + 1), (u + 3, h1)] if side == 0
              else [(h0, u), (u + 2, u + 3), (u + 1, h1)])
    return FramedDiagram(labels, mate, d.free_loops - loop, validate=False)


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
    u, v = m.vertices
    e1, e2 = m.sites
    if set(_edge(d, e1)) == set(_edge(d, e2)):
        raise CodeError(f"one edge given as both R2 sites: {m!r}")
    if u == v or not ({e1[0][0], e1[1][0]} == {u, v} == {e2[0][0], e2[1][0]}):
        raise CodeError(f"invalid R2 site {m!r}")
    if _slot_at(e2, u) == _slot_at(e1, u) ^ 2 or _slot_at(e2, v) == _slot_at(e1, v) ^ 2:
        raise CodeError("edge pair is opposite at an endpoint; not a bigon")
    return splice_out(d, {u: PAIRING_FLAT, v: PAIRING_FLAT})


def _strand_sites(d: FramedDiagram) -> list:
    sites: list = list(d.edges())
    if d.free_loops >= 1:
        sites.append(LOOP_SITE)
    if d.free_loops >= 2:
        sites.append(LOOP_SITE_2)
    return sites


def apply_r2_increase(d: FramedDiagram, site1, site2, pattern: str = PATTERN_PARALLEL) -> FramedDiagram:
    """Push two strand pieces across each other, creating two crossings.

    Sites are edges or free-loop tokens; passing the same edge (or the same
    loop site) twice pushes a strand across itself.  ``pattern`` selects
    between the two relative overlays where they differ."""
    if pattern not in (PATTERN_PARALLEL, PATTERN_CROSSED):
        raise CodeError(f"unknown pattern {pattern!r}")
    ends = []
    for site in (site1, site2):
        if site in (LOOP_SITE, LOOP_SITE_2):
            _check_loop_site(d, site)
            ends.append(None)
        else:
            ends.append(_edge(d, site))
    e1, e2 = ends
    if e1 and e2 and e1 != e2 and set(e1) & set(e2):
        raise CodeError("an edge site given twice must have its ends in the same order")
    labels, mate, moved, (u, v) = _grown(d, 2)
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
        h0, h1 = (moved[h] for h in e1 or e2)
        pairs = [(h0, u), (u + 2, v), (v + 2, h1), (u + 3, v + 1), (v + 3, u + 1)]
    elif e1 == e2:
        h0, h1 = (moved[h] for h in e1)
        if parallel:
            pairs = [(h0, u), (u + 2, v), (v + 2, u + 1), (u + 3, v + 1), (v + 3, h1)]
        else:
            pairs = [(h0, u), (u + 2, v), (v + 2, v + 1), (v + 3, u + 1), (u + 3, h1)]
    else:
        (h1a, h1b), (h2a, h2b) = ([moved[h] for h in e] for e in ends)
        pairs = [(h1a, u), (u + 2, v), (v + 2, h1b)]
        if parallel:
            pairs += [(h2a, u + 1), (u + 3, v + 1), (v + 3, h2b)]
        else:
            pairs += [(h2a, v + 1), (v + 3, u + 1), (u + 3, h2b)]
    _link(mate, pairs)
    return FramedDiagram(labels, mate, free, validate=False)


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


def r3_rewiring(m: MoveInstance):
    """The half-edge surgery of the slide: returns (reattach map, new
    triangle edges).  Each external end hops along its triangle edge to the
    far vertex, landing on the slot the triangle edge vacates; the new
    triangle connects the slots the external ends vacate."""
    u, v, w = m.vertices
    e_uv, e_uw, e_vw = m.sites
    a, a2 = _slot_at(e_uv, u), _slot_at(e_uv, v)
    b, b2 = _slot_at(e_uw, u), _slot_at(e_uw, w)
    c, c2 = _slot_at(e_vw, v), _slot_at(e_vw, w)
    reattach = {
        (u, a ^ 2): (v, a2),
        (v, a2 ^ 2): (u, a),
        (u, b ^ 2): (w, b2),
        (w, b2 ^ 2): (u, b),
        (v, c ^ 2): (w, c2),
        (w, c2 ^ 2): (v, c),
    }
    new_triangle = [
        _edge_key((u, a ^ 2), (v, a2 ^ 2)),
        _edge_key((u, b ^ 2), (w, b2 ^ 2)),
        _edge_key((v, c ^ 2), (w, c2 ^ 2)),
    ]
    return reattach, new_triangle


def apply_r3(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Slide a strand across the opposite crossing of the triangle.  The
    move is an involution on its site and changes no component or vertex
    counts."""
    u, v, w = m.vertices
    e_uv, e_uw, e_vw = m.sites
    triangle = {frozenset(_edge(d, e)) for e in m.sites}
    if len({u, v, w}) < 3 or len(triangle) < 3 or any(
        {x for x, _ in e} != pair for e, pair in zip(m.sites, ({u, v}, {u, w}, {v, w}))
    ):
        raise CodeError(f"invalid R3 site {m!r}")
    if (
        _slot_at(e_uw, u) == _slot_at(e_uv, u) ^ 2
        or _slot_at(e_vw, v) == _slot_at(e_uv, v) ^ 2
        or _slot_at(e_vw, w) == _slot_at(e_uw, w) ^ 2
    ):
        raise CodeError(f"edges are opposite at a corner; not a triangle: {m!r}")
    reattach, new_triangle = r3_rewiring(m)
    at = {(x, s): 4 * d.index(x) + s for x in m.vertices for s in range(4)}
    moved = {at[x]: at[y] for x, y in reattach.items()}
    mate = d.mate[:]
    for h, g in enumerate(d.mate):
        if frozenset((h, g)) not in triangle:
            mate[moved.get(h, h)] = moved.get(g, g)
    _link(mate, [(at[x], at[y]) for x, y in new_triangle])
    return FramedDiagram(d.labels, mate, d.free_loops, validate=False)


# ---------------------------------------------------------------------------
# Dispatch, reduction, neighborhoods


def apply_move(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    if m.kind == R1_DOWN:
        return apply_r1_decrease(d, m)
    if m.kind == R1_UP:
        return apply_r1_increase(d, m.sites[0], m.selector)
    if m.kind == R2_DOWN:
        return apply_r2_decrease(d, m)
    if m.kind == R2_UP:
        return apply_r2_increase(d, m.sites[0], m.sites[1], m.selector)
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
    canonical code and sorted by it."""
    results: dict[CanonicalCode, FramedDiagram] = {}
    for m in find_all_moves(d, d.vertex_count + allow_increase):
        if m.kind == R1_UP and m.selector == 1:
            continue  # the two kink chiralities are isomorphic
        nd = apply_move(d, m)
        results.setdefault(canonical_of(nd), nd)
    return [results[c] for c in sorted(results)]
