"""Independent oracles for the test suite.

Everything here recomputes expected values by a different route than the
package: canonical forms by full orbit enumeration and by relabelling every
variant in full, smoothings by cyclic word surgery, kink deletion by literal
letter removal, and the triangle slide by swapping adjacent letter pairs.
Results are compared canonically.
The state sums and R2 reduction are also recomputed the plain way, every
state built by ``resolve`` and reduced one ``apply_r2_decrease`` at a time.
The second-move decrease and the triangle slide are also checked and applied
on ``(vertex, slot)`` pairs, with edges looked up in ``edges()``.  All five
moves are also found on the labelled ``edges()`` and applied to a dict
matching of ``(vertex, slot)`` pairs, and the move search is also run on
those labelled moves, each child keyed by its labelled Gauss code.
Splices and unicursal walks are redone on a dict from ``(vertex, slot)`` to
``(vertex, slot)`` built from ``edges()``, apart from the integer matching.
Sums of link classes are compared up to all three moves by a move
certificate: each term's closure under the non-increasing moves.
Realizability is looked up in a table of the enumerated one-circle classes,
each class's graph read off its word by position alternation and matched
by networkx's isomorphism test.
The enumerated classes are also recomputed by canonicalizing every raw
chord arrangement (``raw_arrangements``), not grown chord by chord.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from freeknot.analysis import SearchReport
from freeknot.brackets import resolve, split_smoothing
from freeknot.diagrams import (
    PAIRING_A,
    PAIRING_B,
    PAIRING_FLAT,
    CanonicalCode,
    CodeError,
    FramedDiagram,
    GaussCode,
    as_code,
    canonicalize,
    component_count,
    enumerate_codes,
    from_framed,
    splice_out,
    to_framed,
)
from freeknot.moves import (
    LOOP_SITE,
    LOOP_SITE_2,
    MoveInstance,
    apply_move,
    apply_r2_decrease,
    find_all_moves,
    find_r1,
    find_r2,
    find_r3,
)
from freeknot.parity import component_parity, gaussian_parity


def brute_canonical(code: GaussCode) -> CanonicalCode:
    """Minimum over the full symmetry orbit, enumerated outright."""
    words = code.words
    if not words:
        return CanonicalCode((), code.free_loops)
    per_word_variants = []
    for w in words:
        vs = set()
        for base in (w, w[::-1]):
            for r in range(len(base)):
                vs.add(base[r:] + base[:r])
        per_word_variants.append(sorted(vs, key=repr))
    best = None
    for order in itertools.permutations(range(len(words))):
        for choice in itertools.product(*(per_word_variants[i] for i in order)):
            mapping: dict = {}
            relabeled = []
            for w in choice:
                out = []
                for lab in w:
                    if lab not in mapping:
                        mapping[lab] = len(mapping)
                    out.append(mapping[lab])
                relabeled.append(tuple(out))
            cand = tuple(relabeled)
            if best is None or cand < best:
                best = cand
    return CanonicalCode(best, code.free_loops)


def naive_canonicalize(code: GaussCode | CanonicalCode) -> CanonicalCode:
    """Minimum over component orders, rotations and reflections by
    branch and bound: every variant of a component is relabelled in full,
    and a branch is cut once its prefix exceeds the best so far."""
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


def _rotate_to(word: tuple, chord) -> tuple:
    i = word.index(chord)
    return word[i:] + word[:i]


def word_smooth(code: GaussCode, chord) -> list[GaussCode]:
    """The two smoothings of ``chord`` by cyclic word surgery.

    Same-circle chord (word = c A c B): the results are the two circles
    (A, B) and the single circle A + reversed(B).  Chord spanning circles
    c A and c B: the merged circles A + B and A + reversed(B).  Empty
    circles become free loops."""
    hosts = [wi for wi, w in enumerate(code.words) if chord in w]
    others = [w for wi, w in enumerate(code.words) if wi not in hosts]

    def assemble(new_words: list[tuple]) -> GaussCode:
        loops = code.free_loops + sum(1 for w in new_words if not w)
        kept = tuple(w for w in new_words if w) + tuple(others)
        return GaussCode(kept, loops)

    if len(hosts) == 1:
        w = _rotate_to(code.words[hosts[0]], chord)
        j = w.index(chord, 1)
        a, b = w[1:j], w[j + 1:]
        return [assemble([a, b]), assemble([a + b[::-1]])]
    w1 = _rotate_to(code.words[hosts[0]], chord)[1:]
    w2 = _rotate_to(code.words[hosts[1]], chord)[1:]
    return [assemble([w1 + w2]), assemble([w1 + w2[::-1]])]


def kink_delete(code: GaussCode, chord) -> GaussCode:
    """R1 oracle: remove a chord whose occurrences are cyclically adjacent."""
    new_words = []
    loops = code.free_loops
    for w in code.words:
        if chord not in w:
            new_words.append(w)
            continue
        rot = _rotate_to(w, chord)
        if rot[1] != chord and rot[-1] == chord:
            rot = rot[-1:] + rot[:-1]
        assert rot[0] == rot[1] == chord, "occurrences are not adjacent"
        rest = rot[2:]
        if rest:
            new_words.append(rest)
        else:
            loops += 1
    return GaussCode(tuple(new_words), loops)


def find_word_triangles(word: tuple) -> list[tuple]:
    """Triples of chords pairwise adjacent in the cyclic word, as three
    disjoint adjacent position pairs; the slide sites at the word level."""
    n = len(word)
    out = []
    adjacencies: dict = {}
    for i in range(n):
        a, b = word[i], word[(i + 1) % n]
        if a != b:
            adjacencies.setdefault(frozenset((a, b)), []).append(i)
    for trio in itertools.combinations(sorted({lab for lab in word}, key=repr), 3):
        p, q, r = trio
        pairs = [frozenset((p, q)), frozenset((p, r)), frozenset((q, r))]
        if not all(pair in adjacencies for pair in pairs):
            continue
        for picks in itertools.product(*(adjacencies[pair] for pair in pairs)):
            used = set()
            ok = True
            for i in picks:
                if i in used or (i + 1) % n in used:
                    ok = False
                    break
                used.add(i)
                used.add((i + 1) % n)
            if ok:
                out.append((trio, picks))
    return out


def swap_adjacent_pairs(word: tuple, picks) -> tuple:
    """Apply the slide at the word level: each of the three adjacent pairs
    swaps its two letters."""
    n = len(word)
    w = list(word)
    for i in picks:
        j = (i + 1) % n
        w[i], w[j] = w[j], w[i]
    return tuple(w)


def _labelled_edge(d, e) -> frozenset:
    """The edge ``e`` of ``d``, given either way round, as the set of its two
    ``(vertex, slot)`` ends; ``CodeError`` unless ``edges()`` lists it."""
    try:
        (u, s), (v, t) = e
        edges = d.edges()
        if ((u, s), (v, t)) in edges or ((v, t), (u, s)) in edges:
            return frozenset(((u, s), (v, t)))
    except (TypeError, ValueError):
        pass
    raise CodeError(f"edge {e!r} not in diagram")


def _slot_at(edge, v):
    """Slot the edge occupies at vertex v (smaller slot if it is a loop)."""
    for h in edge:
        if h[0] == v:
            return h[1]
    raise CodeError(f"edge {edge!r} does not touch vertex {v!r}")


def _edge_key(h1, h2):
    return (h1, h2) if h1 < h2 else (h2, h1)


def naive_apply_r2_decrease(d, m: MoveInstance):
    """The second-move decrease checked on ``(vertex, slot)`` pairs."""
    u, v = m.vertices
    e1, e2 = m.sites
    if _labelled_edge(d, e1) == _labelled_edge(d, e2):
        raise CodeError(f"one edge given as both R2 sites: {m!r}")
    if u == v or not ({e1[0][0], e1[1][0]} == {u, v} == {e2[0][0], e2[1][0]}):
        raise CodeError(f"invalid R2 site {m!r}")
    if _slot_at(e2, u) == _slot_at(e1, u) ^ 2 or _slot_at(e2, v) == _slot_at(e1, v) ^ 2:
        raise CodeError("edge pair is opposite at an endpoint; not a bigon")
    return splice_out(d, {u: PAIRING_FLAT, v: PAIRING_FLAT})


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


def naive_apply_r3(d, m: MoveInstance):
    """The triangle slide checked and rewired on ``(vertex, slot)`` pairs by
    ``r3_rewiring``."""
    u, v, w = m.vertices
    e_uv, e_uw, e_vw = m.sites
    triangle = {_labelled_edge(d, e) for e in m.sites}
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
        if frozenset((d.half_edge(h), d.half_edge(g))) not in triangle:
            mate[moved.get(h, h)] = moved.get(g, g)
    for x, y in new_triangle:
        mate[at[x]], mate[at[y]] = at[y], at[x]
    return FramedDiagram(d.labels, mate, d.free_loops, validate=False)


def naive_find_all_moves(d, max_vertices: int) -> list[MoveInstance]:
    """Every move of ``d`` found on its labelled ``edges()``, each an edge
    ``((u, s), (v, t))`` with ``(u, s) < (v, t)``, in the order of the
    finders: kinks, bigons and triangles by vertex, then the increases."""
    edges = d.edges()
    out = []
    for v in d.labels:
        kinks = [e for e in edges if e[0][0] == e[1][0] == v and e[0][1] ^ e[1][1] != 2]
        if kinks:
            out.append(MoveInstance("r1-", (v,), (kinks[0],)))
    by_pair: dict = {}
    for e in edges:
        if e[0][0] != e[1][0]:
            by_pair.setdefault((e[0][0], e[1][0]), []).append(e)
    for (u, v), es in sorted(by_pair.items()):
        for k, e1 in enumerate(es):
            for e2 in es[k + 1:]:
                if e1[0][1] ^ e2[0][1] != 2 and e1[1][1] ^ e2[1][1] != 2:
                    out.append(MoveInstance("r2-", (u, v), (e1, e2)))
    for (u, v), uv in sorted(by_pair.items()):
        for w in d.labels[d.labels.index(v) + 1:]:
            for e_uv, e_uw, e_vw in itertools.product(uv, by_pair.get((u, w), ()), by_pair.get((v, w), ())):
                if (e_uw[0][1] ^ e_uv[0][1] != 2 and e_vw[0][1] ^ e_uv[1][1] != 2
                        and e_vw[1][1] ^ e_uw[1][1] != 2):
                    out.append(MoveInstance("r3", (u, v, w), (e_uv, e_uw, e_vw)))
    sites = edges + [LOOP_SITE, LOOP_SITE_2][:d.free_loops]
    if d.vertex_count + 1 <= max_vertices:
        out += [MoveInstance("r1+", (), (s,), side) for s in sites if s != LOOP_SITE_2 for side in (0, 1)]
    if d.vertex_count + 2 <= max_vertices:
        out += [MoveInstance("r2+", (), (s, t), pattern)
                for i, s in enumerate(sites) for t in sites[i:] for pattern in ("parallel", "crossed")]
    return out


def _fresh_ids(labels, count: int) -> list:
    if all(isinstance(v, int) for v in labels):
        return [max(labels, default=-1) + 1 + k for k in range(count)]
    return list(itertools.islice((f"w{i}" for i in itertools.count() if f"w{i}" not in labels), count))


def naive_apply_move(d, m: MoveInstance):
    """A found move applied on ``(vertex, slot)`` pairs: a decrease by
    ``splice_out`` on labels, the slide by ``naive_apply_r3``, and an
    increase by linking fresh vertices into a dict matching, whose labels are
    then sorted."""
    if m.kind == "r1-":
        ((_, s), (_, t)), = m.sites
        return splice_out(d, {m.vertices[0]: PAIRING_B if s ^ t == 1 else PAIRING_A})
    if m.kind == "r2-":
        return naive_apply_r2_decrease(d, m)
    if m.kind == "r3":
        return naive_apply_r3(d, m)
    fresh = _fresh_ids(d.labels, 1 if m.kind == "r1+" else 2)
    u = [(fresh[0], s) for s in range(4)]
    v = [(fresh[-1], s) for s in range(4)]
    loops = [s for s in m.sites if s in (LOOP_SITE, LOOP_SITE_2)]
    edges = [s for s in m.sites if s not in loops]
    if m.kind == "r1+":
        if loops:
            pairs = [(u[1], u[2]), (u[3], u[0])]
        else:
            (h0, h1), = edges
            pairs = [(h0, u[0]), (u[2], u[1]), (u[3], h1)] if m.selector == 0 else [(h0, u[0]), (u[2], u[3]), (u[1], h1)]
    elif len(loops) == 2:
        if loops[0] != loops[1]:
            pairs = [(u[2], v[0]), (v[2], u[0]), (u[3], v[1]), (v[3], u[1])]
        elif m.selector == "parallel":
            pairs = [(u[2], v[0]), (v[2], u[1]), (u[3], v[1]), (v[3], u[0])]
        else:
            pairs = [(u[2], v[0]), (v[2], v[1]), (v[3], u[1]), (u[3], u[0])]
    elif loops:
        (h0, h1), = edges
        pairs = [(h0, u[0]), (u[2], v[0]), (v[2], h1), (u[3], v[1]), (v[3], u[1])]
    elif edges[0] == edges[1]:
        (h0, h1) = edges[0]
        if m.selector == "parallel":
            pairs = [(h0, u[0]), (u[2], v[0]), (v[2], u[1]), (u[3], v[1]), (v[3], h1)]
        else:
            pairs = [(h0, u[0]), (u[2], v[0]), (v[2], v[1]), (v[3], u[1]), (u[3], h1)]
    else:
        (h1a, h1b), (h2a, h2b) = edges
        pairs = [(h1a, u[0]), (u[2], v[0]), (v[2], h1b)]
        if m.selector == "parallel":
            pairs += [(h2a, u[1]), (u[3], v[1]), (v[3], h2b)]
        else:
            pairs += [(h2a, v[1]), (v[3], u[1]), (u[3], h2b)]
    mate = _dict_mate(d)
    for a, b in pairs:
        mate[a], mate[b] = b, a
    labels = tuple(sorted(d.labels + tuple(fresh)))
    at = {x: i for i, x in enumerate(labels)}
    flat = [0] * (4 * len(labels))
    for (x, s), (y, t) in mate.items():
        flat[4 * at[x] + s] = 4 * at[y] + t
    return FramedDiagram(labels, flat, d.free_loops - len(set(loops)))


def naive_bfs(start: CanonicalCode, target, max_vertices: int, max_depth: int) -> SearchReport:
    """The bounded move search on labelled moves: ``find_all_moves`` and
    ``apply_move`` on each class's framed graph, every child canonicalized
    from its labelled Gauss code."""
    parents: dict = {start: None}
    frontier = [start]
    depth = 0
    min_seen = start.chord_count

    def finish(found):
        path = None
        if found:
            steps = []
            cur = target
            while parents[cur] is not None:
                cur, desc = parents[cur]
                steps.append(desc)
            path = tuple(reversed(steps))
        return SearchReport(start, target, max_vertices, max_depth, found, len(parents), min_seen, depth, path)

    if target is not None and start == target:
        return finish(True)
    while frontier and depth < max_depth:
        depth += 1
        nxt = []
        for can in frontier:
            d = to_framed(can)
            for m in find_all_moves(d, max_vertices):
                child = canonicalize(from_framed(apply_move(d, m)))
                if child in parents:
                    continue
                parents[child] = (can, f"{m.kind}@{m.vertices or m.sites}")
                min_seen = min(min_seen, child.chord_count)
                if target is not None and child == target:
                    return finish(True)
                nxt.append(child)
        frontier = nxt
    return finish(False if target is not None else None)


@functools.lru_cache(maxsize=None)
def descent_closure(term: CanonicalCode) -> frozenset:
    """Every class reachable from ``term`` by first, second and third moves
    that do not add vertices.  Finite, as the vertex count never grows."""
    seen = {term}
    stack = [to_framed(term)]
    while stack:
        d = stack.pop()
        for m in find_r1(d) + find_r2(d) + find_r3(d):
            nd = apply_move(d, m)
            c = canonicalize(nd)
            if c not in seen:
                seen.add(c)
                stack.append(nd)
    return frozenset(seen)


def uncancelled_terms(terms) -> list[list[CanonicalCode]]:
    """Move certificate that the GF(2) sum of ``terms`` is zero in the
    space of link classes up to all three moves, where a class with a free
    loop is zero.  Returns the groups the certificate cannot cancel; an
    empty list certifies the sum zero.

    A term whose descent closure holds a free loop is zero.  Terms whose
    closures meet are move equivalent, so the rest are grouped by chains
    of meeting closures and each group of even size cancels.

    Sound but not complete: every accepted cancellation is a real chain
    of moves, but no increasing move is tried, so terms equivalent only
    through a larger diagram stay apart.  A non-empty result does not
    prove the sum non-zero."""
    groups: list[tuple[set, list]] = []
    for t in sorted(terms):
        classes = set(descent_closure(t))
        if any(c.free_loops for c in classes):
            continue
        members = [t]
        for g in [g for g in groups if not g[0].isdisjoint(classes)]:
            groups.remove(g)
            classes |= g[0]
            members += g[1]
        groups.append((classes, members))
    return [sorted(members) for _, members in groups if len(members) % 2]


def _dict_mate(d) -> dict:
    mate: dict = {}
    for h, g in d.edges():
        mate[h], mate[g] = g, h
    return mate


def naive_unicursal_components(d) -> list[list[tuple]]:
    """Passage lists of the closed traversals, walked on a dict matching
    from the least unvisited ``(vertex, slot)``."""
    mate = _dict_mate(d)
    visited: set = set()
    comps = []
    for start in sorted(mate):
        if start in visited:
            continue
        seq = []
        h = start
        while True:
            v, s = h
            visited.add(h)
            visited.add((v, (s + 2) % 4))
            seq.append(h)
            h = mate[v, (s + 2) % 4]
            if h == start:
                break
        comps.append(seq)
    return comps


def naive_splice_out(d, repairings: dict) -> tuple[list, int]:
    """``(edges, free_loops)`` of ``d`` with the vertices of ``repairings``
    (vertex -> pairs of slots) removed, by following every strand through
    the removed vertices on a dict matching."""
    mate = _dict_mate(d)
    hop = {v: {s: t for pair in pairing for s, t in (pair, pair[::-1])}
           for v, pairing in repairings.items()}
    new_mate: dict = {}
    visited: set = set()
    for h in sorted(mate):
        if h[0] in hop or h in new_mate:
            continue
        cur = mate[h]
        while cur[0] in hop:
            visited.add(cur)
            nxt = (cur[0], hop[cur[0]][cur[1]])
            visited.add(nxt)
            cur = mate[nxt]
        new_mate[h] = cur
        new_mate[cur] = h
    free = d.free_loops
    for h0 in sorted(mate):
        if h0[0] not in hop or h0 in visited:
            continue
        cur = h0
        while True:
            visited.add(cur)
            nxt = (cur[0], hop[cur[0]][cur[1]])
            visited.add(nxt)
            cur = mate[nxt]
            if cur == h0:
                break
        free += 1
    return sorted((h, g) for h, g in new_mate.items() if h < g), free


def naive_reduce_r2(code, rng=None) -> tuple[CanonicalCode, bool]:
    """R2 reduction one whole-diagram move at a time: ``find_r2`` then
    ``apply_r2_decrease``, the first instance in sorted order or one drawn
    by ``rng``; the flag records any free loop along the way."""
    d = to_framed(code)
    saw = d.free_loops > 0
    while insts := find_r2(d):
        d = apply_r2_decrease(d, insts[0] if rng is None else rng.choice(insts))
        saw = saw or d.free_loops > 0
    return canonicalize(d), saw


def naive_state_sum(d, even_vertices, keep) -> set:
    """XOR of reduced states over every smoothing of ``even_vertices``, each
    state built by ``resolve`` and kept when ``keep(state, reduced, saw)``."""
    support: set = set()
    for assignment in itertools.product("AB", repeat=len(even_vertices)):
        state = resolve(d, dict(zip(even_vertices, assignment)))
        reduced, saw = naive_reduce_r2(state)
        if keep(state, reduced, saw):
            support ^= {reduced}
    return support


def _evens(d, par) -> list:
    return [v for v in d.vertices() if not par.is_odd(v)]


def naive_alex_bracket(code) -> set:
    """Support of ``alex_bracket``: every state built, one-component kept."""
    d = to_framed(code)
    return naive_state_sum(d, _evens(d, gaussian_parity(d)),
                           lambda state, reduced, saw: component_count(state) == 1)


def naive_kauffman_bracket(code) -> set:
    """Support of ``kauffman_bracket``: every state built, free loops dropped."""
    d = to_framed(code)
    return naive_state_sum(d, _evens(d, component_parity(d)),
                           lambda state, reduced, saw: not saw)


def naive_kdelta(code) -> set:
    """Support of ``kdelta``: the two-bracket over the split terms, each
    split reduced by ``naive_reduce_r2``."""
    d = to_framed(code)
    terms: set = set()
    for v in d.vertices():
        reduced, saw = naive_reduce_r2(split_smoothing(d, v))
        if not saw:
            terms ^= {reduced}
    total: set = set()
    for t in terms:
        total ^= naive_kauffman_bracket(t)
    return total


def word_interlacement_edges(word: tuple) -> set:
    """Pairs of letters whose occurrences alternate in a one-circle word."""
    pos: dict = {}
    for i, lab in enumerate(word):
        pos.setdefault(lab, []).append(i)
    return {(x, y) for x, y in itertools.combinations(sorted(pos), 2)
            if pos[x][0] < pos[y][0] < pos[x][1] < pos[y][1]
            or pos[y][0] < pos[x][0] < pos[y][1] < pos[x][1]}


def _degrees(h) -> tuple:
    return tuple(sorted(d for _, d in h.degree()))


@functools.lru_cache(maxsize=None)
def _class_graph_table(n: int) -> dict:
    """Interlacement graphs of the one-circle classes with ``n`` chords, as
    networkx graphs bucketed by degree sequence."""
    import networkx as nx  # test-only dependency; only these oracles need it

    table: dict = {}
    for can in enumerate_codes(n, 1):
        h = nx.Graph(word_interlacement_edges(can.words[0] if can.words else ()))
        h.add_nodes_from(range(n))
        table.setdefault(_degrees(h), []).append(h)
    return table


def class_table_realizable(h) -> bool:
    """Whether the networkx graph ``h`` is the interlacement graph of a
    one-circle diagram: some class of ``enumerate_codes(n, 1)`` has an
    interlacement graph isomorphic to it."""
    import networkx as nx

    table = _class_graph_table(h.number_of_nodes())
    return any(nx.is_isomorphic(h, c) for c in table.get(_degrees(h), ()))


# ---------------------------------------------------------------------------
# The raw scan: every chord arrangement, for the enumeration and the
# exhaustive tests.  ``enumerate_codes`` grows its classes chord by chord;
# these helpers lay all (2n-1)!! matchings on every composition instead.


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
