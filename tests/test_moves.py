import collections
import hashlib
import itertools
import random

import pytest

from freeknot.analysis import load_fixture, random_diagram, random_moves
from freeknot.diagrams import (
    PAIRING_FLAT,
    CodeError,
    FramedDiagram,
    GaussCode,
    canonicalize,
    component_count,
    enumerate_codes,
    from_framed,
    parse_gauss_code,
    splice_out,
    to_framed,
)
from freeknot.moves import (
    _apply,
    _edge,
    _labelled,
    _moves,
    _untangle,
    LOOP_SITE,
    LOOP_SITE_2,
    MoveInstance,
    R3,
    apply_move,
    apply_r1_decrease,
    apply_r1_increase,
    apply_r2_decrease,
    apply_r2_increase,
    apply_r3,
    find_all_moves,
    find_increases,
    find_r1,
    find_r2,
    find_r3,
    neighbors,
    reduce_r2,
)
from freeknot.parity import component_parity, gaussian_parity
from oracles import (
    find_word_triangles,
    kink_delete,
    naive_apply_move,
    naive_apply_r2_decrease,
    naive_apply_r3,
    naive_find_all_moves,
    naive_reduce_r2,
    r3_rewiring,
    relabelled,
    swap_adjacent_pairs,
)


def code(t):
    return parse_gauss_code(t)


def framed(t):
    return to_framed(code(t))


# ---------------------------------------------------------------------------
# R1


def test_find_r1_examples():
    assert [m.vertices for m in find_r1(framed("a a"))] == [("a",)]
    assert find_r1(framed("a b a b")) == []
    assert find_r1(to_framed(GaussCode((), 0))) == []


def test_r1_decrease_single_kink():
    d = framed("a a")
    r = apply_r1_decrease(d, find_r1(d)[0])
    assert r.vertex_count == 0 and r.free_loops == 1


def test_r1_decrease_matches_kink_deletion_oracle():
    c = code("a b b a")
    d = to_framed(c)
    m = [m for m in find_r1(d) if m.vertices == ("b",)][0]
    expected = canonicalize(kink_delete(c, "b"))
    assert canonicalize(apply_r1_decrease(d, m)) == expected
    assert expected == canonicalize(code("a a"))


def test_r1_increase_then_decrease_is_identity():
    d = framed("a b a b")
    for e in d.edges():
        for side in (0, 1):
            d2 = apply_r1_increase(d, e, side)
            (new_v,) = set(d2.vertices()) - set(d.vertices())
            m = [m for m in find_r1(d2) if m.vertices == (new_v,)][0]
            assert canonicalize(apply_r1_decrease(d2, m)) == canonicalize(d)


def test_r1_increase_on_free_loop():
    d = to_framed(GaussCode((), 1))
    d2 = apply_r1_increase(d, LOOP_SITE)
    assert canonicalize(d2) == canonicalize(code("a a"))
    m = find_r1(d2)[0]
    assert canonicalize(apply_r1_decrease(d2, m)) == canonicalize(d)


# ---------------------------------------------------------------------------
# R2


def test_find_r2_examples():
    assert {m.vertices for m in find_r2(framed("a b b a"))} == {("a", "b")}
    assert {m.vertices for m in find_r2(framed("a b a b"))} == {("a", "b")}
    assert find_r2(framed("a a")) == []


def test_r2_decrease_closes_one_circle():
    for t in ("a b b a", "a b a b"):
        d = framed(t)
        r = apply_r2_decrease(d, find_r2(d)[0])
        assert r.vertex_count == 0 and r.free_loops == 1


def test_r2_increase_then_decrease_is_identity():
    d = framed("a b a b")
    edges = d.edges()
    cases = [(edges[0], edges[2]), (edges[1], edges[1]), (edges[3], edges[0])]
    for e1, e2 in cases:
        for pattern in ("parallel", "crossed"):
            d2 = apply_r2_increase(d, e1, e2, pattern)
            assert d2.vertex_count == d.vertex_count + 2
            new = set(d2.vertices()) - set(d.vertices())
            bigons = [m for m in find_r2(d2) if set(m.vertices) == new]
            assert len(bigons) == 1
            assert canonicalize(apply_r2_decrease(d2, bigons[0])) == canonicalize(d)


def test_r2_increase_loop_sites():
    one = to_framed(GaussCode((), 1))
    assert canonicalize(apply_r2_increase(one, LOOP_SITE, LOOP_SITE, "parallel")) == canonicalize(code("a b a b"))
    assert canonicalize(apply_r2_increase(one, LOOP_SITE, LOOP_SITE, "crossed")) == canonicalize(code("a b b a"))
    two = to_framed(GaussCode((), 2))
    assert canonicalize(apply_r2_increase(two, LOOP_SITE, LOOP_SITE_2, "parallel")) == canonicalize(code("a b | a b"))
    d = framed("c c")
    e = d.edges()[0]
    with pytest.raises(CodeError):
        apply_r2_increase(d, e, LOOP_SITE)  # no free loop available


def test_r2_increase_edge_plus_loop_roundtrip():
    d = to_framed(code("c c | O"))  # kinked circle plus a free loop
    e = d.edges()[0]
    d2 = apply_r2_increase(d, e, LOOP_SITE)
    assert d2.vertex_count == 3 and d2.free_loops == 0
    new = set(d2.vertices()) - {"c"}
    bigons = [m for m in find_r2(d2) if set(m.vertices) == new]
    assert bigons and canonicalize(apply_r2_decrease(d2, bigons[0])) == canonicalize(d)


def test_r2_decrease_rejects_one_edge_as_both_sites():
    d = to_framed(load_fixture("k1"))  # minimal: no bigon
    assert find_r2(d) == []
    e = (("0", 2), ("1", 0))
    assert e in d.edges()
    for sites in ((e, e), (e, e[::-1])):
        with pytest.raises(CodeError):
            apply_r2_decrease(d, MoveInstance("r2-", ("0", "1"), sites))


def test_r2_decrease_rejects_a_kink_as_bigon():
    d = framed("a a")
    with pytest.raises(CodeError):
        apply_r2_decrease(d, MoveInstance("r2-", ("a", "a"), tuple(d.edges())))


def test_loop_sites_must_name_existing_free_loops():
    d = framed("a a | O")  # one free loop: LOOP_SITE names it, LOOP_SITE_2 names nothing
    e = d.edges()[0]
    assert apply_r1_increase(d, LOOP_SITE).free_loops == 0
    assert apply_r2_increase(d, e, LOOP_SITE).free_loops == 0
    with pytest.raises(CodeError):
        apply_r1_increase(d, LOOP_SITE_2)
    for sites in ((e, LOOP_SITE_2), (LOOP_SITE_2, e), (LOOP_SITE_2, LOOP_SITE_2), (LOOP_SITE, LOOP_SITE_2)):
        with pytest.raises(CodeError):
            apply_r2_increase(d, *sites)


def test_r2_increase_rejects_one_edge_given_in_two_orders():
    d = framed("a b a b")
    e = d.edges()[0]
    with pytest.raises(CodeError):
        apply_r2_increase(d, e, e[::-1])


def _letter_copy(c: GaussCode, letters) -> GaussCode:
    """``c`` with label ``i`` renamed ``letters[i]``."""
    return GaussCode(tuple(tuple(letters[x] for x in w) for w in c.words), c.free_loops)


def _check_increases_against_integer_copy(d):
    """Every R1+/R2+ on ``d`` gives a valid diagram, and the same class as the
    same move on the copy of ``d`` whose vertices are labelled 0, 1, ...
    Returns how many results had a fresh vertex sort before an old one."""
    number = {v: i for i, v in enumerate(d.labels)}
    ints = FramedDiagram(tuple(range(d.vertex_count)), d.mate, d.free_loops)
    reordered = 0
    for m in find_increases(d, d.vertex_count + 2):
        r = apply_move(d, m)
        FramedDiagram(r.labels, r.mate, r.free_loops)  # checks the matching
        sites = tuple(s if s in (LOOP_SITE, LOOP_SITE_2) else tuple((number[v], t) for v, t in s)
                      for s in m.sites)
        assert canonicalize(r) == canonicalize(apply_move(ints, MoveInstance(m.kind, (), sites, m.selector))), m
        reordered += r.labels[-1] in number
    return reordered


@pytest.mark.parametrize("text", ["a z a w z w", "x w0 y x y w0"])
def test_increases_renumber_fresh_ids_that_sort_between_old_labels(text):
    assert _check_increases_against_integer_copy(framed(text)) > 0


def test_increases_on_every_small_class_relabelled_to_letters():
    # the fresh ids w0, w1 sort between the letters w and x
    letters = ("a", "w", "x", "z")
    classes = reordered = 0
    for n in range(0, 5):
        for k in (1, 2, 3):
            for can in enumerate_codes(n, k):
                reordered += _check_increases_against_integer_copy(to_framed(_letter_copy(can.code(), letters)))
                classes += 1
    assert classes > 100 and reordered > 1000


def _check_integer_moves_against_the_labelled_oracles(d):
    """The integer moves of ``d``, labelled, are the moves the labelled
    oracle finds, in its order; the kernel's child of each, and the public
    apply's, equal the oracle's in labels, matching and free loops.
    Returns the number of moves of each kind."""
    max_vertices = d.vertex_count + 2
    moves = list(_moves(d, max_vertices))
    labelled = [_labelled(d, move) for move in moves]
    assert labelled == naive_find_all_moves(d, max_vertices) == find_all_moves(d, max_vertices)
    for move, m in zip(moves, labelled):
        child = _apply(d, move)
        assert child == naive_apply_move(d, m) == apply_move(d, m), (from_framed(d), m)
    return collections.Counter(m.kind for m in labelled)


def test_integer_moves_match_the_labelled_oracles_on_every_small_class():
    checked = collections.Counter()
    for n in range(5):
        for k in (1, 2, 3):
            for can in enumerate_codes(n, k):
                checked += _check_integer_moves_against_the_labelled_oracles(to_framed(can.code()))
    assert min(checked.values()) > 150 and checked.total() > 20000, checked


@pytest.mark.parametrize("text", [
    "a z a w z w",
    "x w0 y x y w0",
    # the fresh ids w9, w10 sort after and before the last label w8
    " ".join([f"w{i}" for i in range(9)] * 2),
])
def test_integer_moves_match_the_labelled_oracles_on_string_labels(text):
    assert _check_integer_moves_against_the_labelled_oracles(framed(text)).total() > 50


@pytest.mark.parametrize("text, absent", [
    ("a b a b", ["c", "", 0, None, ("a",)]),
    ("0 1 0 1", ["2", 2, -1, 0.5, None]),
])
def test_an_absent_or_incomparable_vertex_is_a_code_error(text, absent):
    d = framed(text) if text[0].isalpha() else to_framed(GaussCode(((0, 1, 0, 1),)))
    for v in absent:
        with pytest.raises(CodeError, match="not in diagram"):
            d.index(v)
        with pytest.raises(CodeError, match="not in diagram"):
            splice_out(d, {v: PAIRING_FLAT})
        with pytest.raises(CodeError, match="not in diagram"):
            _edge(d, ((v, 0), (d.labels[0], 1)))
    assert [d.index(v) for v in d.labels] == [0, 1]


# ---------------------------------------------------------------------------
# deleting every kink and bigon


def _untangle_cases():
    """Every class with at most 6 chords on 1-2 circles, and 300 seeded
    random diagrams with 4-10 chords scrambled by up to 6 moves."""
    yield from (can for k in (1, 2) for n in range(7) for can in enumerate_codes(n, k))
    rng = random.Random(19)
    for _ in range(300):
        n, k = rng.randint(4, 10), rng.randint(1, 2)
        yield random_moves(random_diagram(n, k, rng), rng.randint(1, 6), n + 2, rng)


def test_untangle_leaves_no_kink_or_bigon_and_keeps_every_parity():
    for c in _untangle_cases():
        d = to_framed(c)
        u = _untangle(d)
        assert not find_r1(u) and not find_r2(u), str(c)
        assert component_count(u) == component_count(d), str(c)
        assert set(u.labels) <= set(d.labels), str(c)
        parity = gaussian_parity if component_count(d) == 1 else component_parity
        assert parity(u).odd == parity(d).odd & set(u.labels), str(c)


#: sha256 of ``repr((labels, mate, free_loops))`` of ``_untangle`` over
#: ``_untangle_cases()``, in order, as first computed.  Which vertices the
#: pass keeps sets the order of the terms the state sums smooth, and so the
#: width of ``kdelta``'s levels, while no bracket changes; this pins them.
UNTANGLE_DIGEST = "6423d4a284b578fc09d9c7ef82ec7a4f34d5e12413d5c4b11adf4a62736ef811"


def test_untangle_keeps_the_same_vertices_labels_and_matching():
    h = hashlib.sha256()
    for c in _untangle_cases():
        u = _untangle(to_framed(c))
        h.update(repr((u.labels, u.mate, u.free_loops)).encode())
    assert h.hexdigest() == UNTANGLE_DIGEST


# ---------------------------------------------------------------------------
# reduce_r2


def test_reduce_crossed_pair_gives_free_loop():
    can, saw = reduce_r2(code("a b a b"))
    assert str(can) == "O" and saw is True


def test_reduce_kink_is_kept():
    can, saw = reduce_r2(code("a a"))
    assert can == canonicalize(code("a a")) and saw is False


def test_reduce_keeps_the_kink_a_bigon_leaves():
    # a state's kinks are part of its term, so the state sums reduce by the
    # second move only; the brackets' pre-pass deletes kinks too
    c = code("a b a b c c")
    assert reduce_r2(c) == (canonicalize(code("a a")), False)
    assert str(canonicalize(_untangle(to_framed(c)))) == "O"


def test_reduce_flat_trefoil_by_slot_level_oracle():
    # the two a-b arcs sit at non-opposite slots on both vertices, so the
    # exhaustive bigon check finds an instance and the word reduces
    c = code("a b c a b c")
    d = to_framed(c)
    assert find_r2(d), "slot-level bigon scan must find the lobe bigon"
    can, saw = reduce_r2(c)
    assert can == canonicalize(code("a a"))
    assert saw is False
    assert find_r2(to_framed(can)) == []


def test_reduce_output_is_irreducible_and_order_independent():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(0, 6)
        k = 1 if n == 0 else rng.randint(1, 2)
        c = random_diagram(n, k, rng)
        base = reduce_r2(c)
        assert find_r2(to_framed(base[0])) == []
        for _ in range(6):
            assert naive_reduce_r2(c, random.Random(rng.randrange(2**32))) == base
            assert reduce_r2(relabelled(c, rng)) == base


def test_reduce_matches_the_one_move_at_a_time_oracle_exhaustive_small():
    checked = 0
    for k in (1, 2, 3):
        for n in range(0, 6):
            for can in enumerate_codes(n, k):
                assert reduce_r2(can) == naive_reduce_r2(can), str(can)
                checked += 1
    assert checked == 1109  # 105 + 349 + 655 classes with 1, 2, 3 components


# ---------------------------------------------------------------------------
# R3


def _graph_instance_for_word_triangle(d, word, trio, picks):
    """Translate word-level adjacent pairs into the framed-graph instance."""
    occ_count = {}
    passes = []
    for lab in word:
        k = occ_count.get(lab, 0)
        occ_count[lab] = k + 1
        passes.append(((lab, 0 if k == 0 else 1), (lab, 2 if k == 0 else 3)))
    n = len(word)
    edges = {}
    for i in picks:
        j = (i + 1) % n
        exit_h = passes[i][1]
        entry_h = passes[j][0]
        e = (exit_h, entry_h) if exit_h < entry_h else (entry_h, exit_h)
        edges[frozenset((word[i], word[j]))] = e
    u, v, w = sorted(trio, key=repr)
    return MoveInstance(
        R3,
        (u, v, w),
        (edges[frozenset((u, v))], edges[frozenset((u, w))], edges[frozenset((v, w))]),
    )


def test_r3_matches_adjacent_pair_swap_oracle():
    checked = 0
    for n in (3, 4, 5):
        for can in enumerate_codes(n, 1):
            word = can.words[0]
            d = to_framed(can.code())
            found = find_r3(d)
            word_tris = find_word_triangles(word)
            assert len(found) == len(word_tris)
            for trio, picks in word_tris:
                m = _graph_instance_for_word_triangle(d, word, trio, picks)
                assert m in found
                expected = canonicalize(GaussCode((swap_adjacent_pairs(word, picks),)))
                assert canonicalize(apply_r3(d, m)) == expected
                checked += 1
    assert checked >= 10


def test_r3_is_an_involution_at_its_site():
    d = framed("u v u w v w")
    for m in find_r3(d):
        d2 = apply_r3(d, m)
        _, new_triangle = r3_rewiring(m)
        m2 = MoveInstance(R3, m.vertices, tuple(new_triangle))
        assert m2 in find_r3(d2)
        assert canonicalize(apply_r3(d2, m2)) == canonicalize(d)


def test_r3_rejects_a_site_that_is_not_a_triangle():
    d = framed("u v u w v w")
    e = (("u", 0), ("w", 3))
    uv, uw, vw = find_r3(d)[0].sites
    for vertices, sites in [
        (("u", "u", "w"), (e, e, e)),     # a repeated vertex and edge
        (("u", "v", "w"), (uv, uv, vw)),  # a repeated edge
        (("u", "v", "w"), (uw, uv, vw)),  # e_uv does not join u and v
    ]:
        with pytest.raises(CodeError, match="invalid R3 site"):
            apply_r3(d, MoveInstance(R3, vertices, sites))


@pytest.mark.parametrize("kind, vertices, site_count", [
    pytest.param("r1+", (), 0, id="r1+ with no site"),
    pytest.param("r2+", (), 1, id="r2+ with one site"),
    pytest.param("r1-", (), 1, id="r1- with no vertex"),
    pytest.param("r2-", ("u",), 2, id="r2- with one vertex"),
    pytest.param("r3", ("u", "v", "w"), 1, id="r3 with one site"),
    pytest.param("r3", ("u", "v"), 3, id="r3 with two vertices"),
])
def test_an_instance_of_the_wrong_shape_is_a_code_error(kind, vertices, site_count):
    d = framed("u v u w v w")
    e = d.edges()[0]
    with pytest.raises(CodeError):
        apply_move(d, MoveInstance(kind, vertices, (e,) * site_count))


def _near_instances(d, m, rng):
    """``m`` and instances near it: vertices and sites permuted, one site
    reversed, repeated or replaced by a random edge."""
    for vertices in itertools.permutations(m.vertices):
        for sites in itertools.permutations(m.sites):
            yield MoveInstance(m.kind, vertices, sites)
    edges = d.edges()
    for k, site in enumerate(m.sites):
        others = [e[::-1] for e in m.sites] + [rng.choice(edges) for _ in range(3)]
        for e in [site[::-1]] + others[:k] + others[k + 1:]:
            yield MoveInstance(m.kind, m.vertices, m.sites[:k] + (e,) + m.sites[k + 1:])


def _repeated_vertex_instances(d):
    """R2 and R3 instances that name a kinked vertex twice, on its edges."""
    for (v,), (loop,) in ((m.vertices, m.sites) for m in find_r1(d)):
        at_v = [e for e in d.edges() if v in (e[0][0], e[1][0])]
        for e1, e2 in itertools.permutations(at_v, 2):
            w = e1[1][0] if e1[0][0] == v else e1[0][0]
            yield MoveInstance("r2-", (v, v), (e1, e2))
            yield MoveInstance(R3, (v, v, w), (loop, e1, e2))
            yield MoveInstance(R3, (v, w, v), (e1, loop, e2))
            yield MoveInstance(R3, (w, v, v), (e1, e2, loop))


def _outcome(apply, d, m):
    try:
        return apply(d, m)
    except CodeError:
        return CodeError


def test_r2_decrease_and_r3_match_the_label_level_oracles():
    rng = random.Random(8)
    diagrams = [to_framed(can.code()) for n in range(2, 6) for k in (1, 2, 3) for can in enumerate_codes(n, k)]
    for _ in range(60):
        n, k = rng.randint(4, 7), rng.randint(1, 3)
        c = random_moves(random_diagram(n, k, rng), 3, n + 2, rng)
        # and a copy under shuffled letters, whose vertex order differs
        letters = dict(zip(c.labels(), rng.sample("abcdefghijklmnopqrstuvwxyz", len(c.labels()))))
        diagrams += [to_framed(c), to_framed(_letter_copy(c, letters))]
    apply = {"r2-": (apply_r2_decrease, naive_apply_r2_decrease), R3: (apply_r3, naive_apply_r3)}
    sites = {"r2-": 0, R3: 0}
    for d in diagrams:
        instances = list(_repeated_vertex_instances(d))
        for m in find_r2(d) + find_r3(d):
            sites[m.kind] += 1
            instances += _near_instances(d, m, rng)
        for m in instances:
            fast, oracle = apply[m.kind]
            assert _outcome(fast, d, m) == _outcome(oracle, d, m), (from_framed(d), m)
    assert sites["r2-"] > 1000 and sites[R3] > 1000, sites


def test_r3_component_count_conserved_on_random_diagrams():
    # every instance find_r3 reports must apply: apply_r3 raises on a non-triangle
    rng = random.Random(3)
    seen = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        k = rng.randint(1, 2)
        c = random_moves(random_diagram(n, k, rng), rng.randint(0, 3), n + 2, rng)
        d = to_framed(c)
        for m in find_r3(d):
            seen += 1
            assert component_count(apply_r3(d, m)) == component_count(d)
    assert seen >= 20


def test_triangle_constructible_by_two_r2_increases():
    start = framed("a a")
    hits = 0
    for e1 in start.edges():
        for e2 in start.edges():
            for p1 in ("parallel", "crossed"):
                mid = apply_r2_increase(start, e1, e2, p1)
                for f1 in mid.edges():
                    for f2 in mid.edges():
                        for p2 in ("parallel", "crossed"):
                            if find_r3(apply_r2_increase(mid, f1, f2, p2)):
                                hits += 1
    assert hits > 0


# ---------------------------------------------------------------------------
# conservation, neighbors


def test_all_moves_conserve_component_count_small_enumeration():
    for n in range(0, 4):
        for k in (1, 2):
            for can in enumerate_codes(n, k):
                d = to_framed(can.code())
                before = component_count(d)
                for m in find_all_moves(d, d.vertex_count + 2):
                    assert component_count(apply_move(d, m)) == before


def test_inverse_pairs_on_enumeration():
    for can in enumerate_codes(2, 1) + enumerate_codes(2, 2):
        d = to_framed(can.code())
        for m in find_r1(d):
            r = apply_r1_decrease(d, m)
            assert component_count(r) == component_count(d)
        for m in find_r2(d):
            r = apply_r2_decrease(d, m)
            assert component_count(r) == component_count(d)


def test_neighbors_examples():
    assert neighbors(to_framed(GaussCode((), 0)), 0) == []
    ns = {canonicalize(x) for x in neighbors(framed("a a"), 0)}
    assert canonicalize(GaussCode((), 1)) in ns
    d = framed("a b | a b")
    for nd in neighbors(d, 2):
        assert component_count(nd) == 2


def test_neighbors_deduplicates_by_canonical_code():
    ns = neighbors(framed("a b a b"), 2)
    cans = [canonicalize(x) for x in ns]
    assert len(cans) == len(set(cans))
    assert cans == sorted(cans)
