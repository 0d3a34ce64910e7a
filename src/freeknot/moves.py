"""Reidemeister moves on framed 4-valent diagrams.

Detection is slot-level: a kink is an edge joining two non-opposite slots of
one vertex, a bigon is a vertex pair joined by two edges that are
non-opposite at both ends, and a triangle is a vertex triple pairwise joined
by edges that are non-opposite at each shared vertex.  Application rewires
the perfect matching; strand pieces that close up vertex-free become free
loops.

Increase sites are strand pieces: an existing edge, or a free loop.  A free
loop site is written ``("loop", i)`` with ``i`` in {0, 1} selecting distinct
(interchangeable) loops; passing the same loop site twice to the R2 increase
pushes a circle across itself.
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
    opposite,
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


def _edges_between(d: FramedDiagram):
    """Map unordered vertex pair -> sorted list of connecting edges."""
    by_pair: dict = {}
    for e in d.edges():
        (u, _), (v, _) = e
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        by_pair.setdefault(key, []).append(e)
    return by_pair


# ---------------------------------------------------------------------------
# R1


def find_r1(d: FramedDiagram) -> list[MoveInstance]:
    """One instance per vertex carrying a loop edge (an edge joining two of
    its own non-opposite slots)."""
    out = []
    for v in d.vertices():
        loops = []
        for s in range(4):
            g = d.mate[(v, s)]
            if g[0] == v and g[1] != opposite(s):
                loops.append(_edge_key((v, s), g))
        if loops:
            out.append(MoveInstance(R1_DOWN, (v,), (min(loops),)))
    return out


def apply_r1_decrease(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Erase the kink: the loop edge is absorbed and the two remaining
    strand ends are spliced straight."""
    (v,) = m.vertices
    (loop,) = m.sites
    if any(h not in d.mate or h[0] != v for h in loop) or d.mate[loop[0]] != loop[1]:
        raise CodeError(f"invalid R1 site {m!r}")
    s, t = loop[0][1], loop[1][1]
    if t == opposite(s):
        raise CodeError("loop edge joins opposite slots; not an R1 site")
    # the smoothing that does NOT pair the loop slots together absorbs it
    pairing = PAIRING_B if PAIRING_A[s] == t else PAIRING_A
    return splice_out(d, {v: pairing})


def apply_r1_increase(d: FramedDiagram, site, side: int = 0) -> FramedDiagram:
    """Put a kink on an edge, or on a free loop (site=("loop", 0))."""
    if side not in (0, 1):
        raise CodeError("side must be 0 or 1")
    if site == LOOP_SITE or site == LOOP_SITE_2:
        if d.free_loops < 1:
            raise CodeError("no free loop to kink")
        (u,) = fresh_vertex_ids(d, 1)
        mate = dict(d.mate)
        for a, b in (((u, 1), (u, 2)), ((u, 3), (u, 0))):
            mate[a] = b
            mate[b] = a
        return FramedDiagram(mate, d.free_loops - 1, validate=False)
    h0, h1 = site
    if d.mate.get(h0) != h1:
        raise CodeError(f"edge {site!r} not in diagram")
    (u,) = fresh_vertex_ids(d, 1)
    mate = dict(d.mate)
    del mate[h0], mate[h1]
    if side == 0:
        new = [(h0, (u, 0)), ((u, 2), (u, 1)), ((u, 3), h1)]
    else:
        new = [(h0, (u, 0)), ((u, 2), (u, 3)), ((u, 1), h1)]
    for a, b in new:
        mate[a] = b
        mate[b] = a
    return FramedDiagram(mate, d.free_loops, validate=False)


# ---------------------------------------------------------------------------
# R2


def find_r2(d: FramedDiagram) -> list[MoveInstance]:
    """Bigons: unordered vertex pairs joined by two edges occupying
    non-opposite slots at both ends."""
    out = []
    for (u, v), edges in sorted(_edges_between(d).items()):
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                e1, e2 = edges[i], edges[j]
                if _slot_at(e2, u) == opposite(_slot_at(e1, u)):
                    continue
                if _slot_at(e2, v) == opposite(_slot_at(e1, v)):
                    continue
                out.append(MoveInstance(R2_DOWN, (u, v), (e1, e2)))
    return out


def apply_r2_decrease(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Remove the bigon; each transit strand is spliced straight through."""
    u, v = m.vertices
    e1, e2 = m.sites
    for e in (e1, e2):
        if d.mate.get(e[0]) != e[1]:
            raise CodeError(f"edge {e!r} not in diagram")
    if not ({e1[0][0], e1[1][0]} == {u, v} == {e2[0][0], e2[1][0]}):
        raise CodeError(f"invalid R2 site {m!r}")
    if _slot_at(e2, u) == opposite(_slot_at(e1, u)) or _slot_at(e2, v) == opposite(_slot_at(e1, v)):
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
    loop1 = site1 in (LOOP_SITE, LOOP_SITE_2)
    loop2 = site2 in (LOOP_SITE, LOOP_SITE_2)
    for site, is_loop in ((site1, loop1), (site2, loop2)):
        if not is_loop and d.mate.get(site[0]) != site[1]:
            raise CodeError(f"edge {site!r} not in diagram")
    u, v = fresh_vertex_ids(d, 2)
    mate = dict(d.mate)
    free = d.free_loops

    def add(pairs):
        for a, b in pairs:
            mate[a] = b
            mate[b] = a

    if loop1 and loop2:
        if site1 == site2:
            # one circle across itself: interlaced or nested double point pair
            if free < 1:
                raise CodeError("no free loop for self-push")
            free -= 1
            if pattern == PATTERN_PARALLEL:
                add([((u, 2), (v, 0)), ((v, 2), (u, 1)), ((u, 3), (v, 1)), ((v, 3), (u, 0))])
            else:
                add([((u, 2), (v, 0)), ((v, 2), (v, 1)), ((v, 3), (u, 1)), ((u, 3), (u, 0))])
        else:
            if free < 2:
                raise CodeError("two free loops required")
            free -= 2
            add([((u, 2), (v, 0)), ((v, 2), (u, 0)), ((u, 3), (v, 1)), ((v, 3), (u, 1))])
    elif loop1 or loop2:
        if free < 1:
            raise CodeError("no free loop available")
        free -= 1
        h0, h1 = site2 if loop1 else site1
        del mate[h0], mate[h1]
        add([(h0, (u, 0)), ((u, 2), (v, 0)), ((v, 2), h1), ((u, 3), (v, 1)), ((v, 3), (u, 1))])
    elif site1 == site2:
        h0, h1 = site1
        del mate[h0], mate[h1]
        if pattern == PATTERN_PARALLEL:
            add([(h0, (u, 0)), ((u, 2), (v, 0)), ((v, 2), (u, 1)), ((u, 3), (v, 1)), ((v, 3), h1)])
        else:
            add([(h0, (u, 0)), ((u, 2), (v, 0)), ((v, 2), (v, 1)), ((v, 3), (u, 1)), ((u, 3), h1)])
    else:
        h1a, h1b = site1
        h2a, h2b = site2
        del mate[h1a], mate[h1b], mate[h2a], mate[h2b]
        add([(h1a, (u, 0)), ((u, 2), (v, 0)), ((v, 2), h1b)])
        if pattern == PATTERN_PARALLEL:
            add([(h2a, (u, 1)), ((u, 3), (v, 1)), ((v, 3), h2b)])
        else:
            add([(h2a, (v, 1)), ((v, 3), (u, 1)), ((u, 3), h2b)])
    return FramedDiagram(mate, free, validate=False)


# ---------------------------------------------------------------------------
# R3


def find_r3(d: FramedDiagram) -> list[MoveInstance]:
    """Triangles: vertex triples pairwise joined by edges, the two triangle
    edges non-opposite at every corner.  Sites carry (e_uv, e_uw, e_vw)."""
    by_pair = _edges_between(d)
    verts = d.vertices()
    out = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            uv = by_pair.get((verts[i], verts[j]))
            if not uv:
                continue
            for k in range(j + 1, len(verts)):
                uw = by_pair.get((verts[i], verts[k]))
                vw = by_pair.get((verts[j], verts[k]))
                if not uw or not vw:
                    continue
                u, v, w = verts[i], verts[j], verts[k]
                for e_uv in uv:
                    for e_uw in uw:
                        if _slot_at(e_uw, u) == opposite(_slot_at(e_uv, u)):
                            continue
                        for e_vw in vw:
                            if _slot_at(e_vw, v) == opposite(_slot_at(e_uv, v)):
                                continue
                            if _slot_at(e_vw, w) == opposite(_slot_at(e_uw, w)):
                                continue
                            out.append(MoveInstance(R3, (u, v, w), (e_uv, e_uw, e_vw)))
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
        (u, opposite(a)): (v, a2),
        (v, opposite(a2)): (u, a),
        (u, opposite(b)): (w, b2),
        (w, opposite(b2)): (u, b),
        (v, opposite(c)): (w, c2),
        (w, opposite(c2)): (v, c),
    }
    new_triangle = [
        _edge_key((u, opposite(a)), (v, opposite(a2))),
        _edge_key((u, opposite(b)), (w, opposite(b2))),
        _edge_key((v, opposite(c)), (w, opposite(c2))),
    ]
    return reattach, new_triangle


def apply_r3(d: FramedDiagram, m: MoveInstance) -> FramedDiagram:
    """Slide a strand across the opposite crossing of the triangle.  The
    move is an involution on its site and changes no component or vertex
    counts."""
    triangle = set(m.sites)
    for e in triangle:
        if d.mate.get(e[0]) != e[1]:
            raise CodeError(f"edge {e!r} not in diagram")
    u, v, w = m.vertices
    e_uv, e_uw, e_vw = m.sites
    if (
        _slot_at(e_uw, u) == opposite(_slot_at(e_uv, u))
        or _slot_at(e_vw, v) == opposite(_slot_at(e_uv, v))
        or _slot_at(e_vw, w) == opposite(_slot_at(e_uw, w))
    ):
        raise CodeError(f"edges are opposite at a corner; not a triangle: {m!r}")
    reattach, new_triangle = r3_rewiring(m)
    mate: dict = {}
    for e in d.edges():
        if e in triangle:
            continue
        x, y = (reattach.get(h, h) for h in e)
        mate[x] = y
        mate[y] = x
    for x, y in new_triangle:
        mate[x] = y
        mate[y] = x
    return FramedDiagram(mate, d.free_loops, validate=False)


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


def _bigons(mate: dict, first_only: bool) -> list:
    """Bigons as vertex pairs ``(u, v)`` joined by two edges at adjacent
    slots of both, in scan order of ``mate``: one entry per end and edge
    pair, so a bigon may repeat.  ``first_only`` stops at the first."""
    out = []
    for (u, s), h in mate.items():
        g = mate[u, (s + 1) % 4]
        if h[0] == g[0] != u and (h[1] - g[1]) % 2:
            out.append((u, h[0]))
            if first_only:
                break
    return out


def reduce_r2(code: GaussCode | CanonicalCode | FramedDiagram, _rng: random.Random | None = None):
    """Apply decreasing R2 moves until none is possible.

    Returns ``(CanonicalCode, saw_free_loop)``; the flag records whether any
    intermediate or final diagram carried a free loop, which is whether the
    result has one, as free loops never vanish under these moves.  Each
    move deletes the two vertices of a bigon in place on one copy of the
    matching, continuing both strands straight through.  The result is
    independent of the reduction order (tested, not assumed); the default
    order takes the first bigon in scan order, ``_rng`` picks among all."""
    d = to_framed(code)
    mate = dict(d.mate)
    free = d.free_loops
    while bigons := _bigons(mate, _rng is None):
        for w in bigons[0] if _rng is None else _rng.choice(bigons):
            for s in (0, 1):
                a, b = mate.pop((w, s)), mate.pop((w, s + 2))
                if a == (w, s + 2):
                    free += 1
                else:
                    mate[a], mate[b] = b, a
    return canonical_of(FramedDiagram(mate, free, validate=False)), free > 0


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
