import itertools
import random

import pytest

from freeknot import analysis, moves
from freeknot.analysis import (
    REALIZABLE_MAX_VERTICES,
    bfs_equivalent,
    explore_moves,
    graphs_isomorphic,
    intersection_graph,
    load_fixture,
    lower_bound_knot,
    lower_bound_link2,
    parse_adjacency,
    random_diagram,
    random_moves,
    realizable,
)
from freeknot.brackets import kauffman_bracket
from freeknot.diagrams import (
    BudgetError,
    GaussCode,
    PreconditionError,
    canonicalize,
    enumerate_codes,
    parse_gauss_code,
    to_framed,
)
from freeknot.moves import find_r2, reduce_r2
from freeknot.parity import (
    InterlacementGraph,
    component_parity,
    gaussian_parity,
    interlacement,
    source_sink_orientable,
)
from find_fixtures import search_minimal_fixtures
from oracles import naive_bfs


def code(t):
    return parse_gauss_code(t)


def graph(edges, extra=()):
    verts = sorted({v for e in edges for v in e} | set(extra))
    return InterlacementGraph(tuple(verts), frozenset(frozenset(e) for e in edges))


# ---------------------------------------------------------------------------
# lower bounds


def test_bound_examples_trivial_diagrams():
    c = lower_bound_knot(code("a a"))
    assert c.bound == 0 and not c.tight
    c = lower_bound_knot(code("a b a b"))
    assert c.bound == 0 and not c.tight
    c = lower_bound_link2(code("a a | b b"))
    assert c.bound == 0 and not c.tight
    c = lower_bound_link2(code("a b | a b"))
    assert c.bound == reduce_r2(code("a b | a b"))[0].chord_count == 0


def test_bound_component_preconditions():
    with pytest.raises(PreconditionError):
        lower_bound_knot(code("a b | a b"))
    with pytest.raises(PreconditionError):
        lower_bound_link2(code("a a"))


def test_bounds_are_sound_under_random_moves():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(0, 5)
        k = rng.randint(1, 2) if n else 1
        c = random_diagram(n, k, rng)
        cert = lower_bound_knot(c) if k == 1 else lower_bound_link2(c)
        for _ in range(4):
            moved = random_moves(c, rng.randint(0, 4), n + 3, rng)
            assert moved.chord_count >= cert.bound


# ---------------------------------------------------------------------------
# realizability


def test_realizable_single_edge_witness():
    w = realizable(graph([("x", "y")]))
    assert w == canonicalize(code("a b a b"))


def test_realizable_edgeless_witness():
    w = realizable(graph([], extra=("x", "y")))
    assert w == canonicalize(code("a a b b"))


def test_realizable_self_consistent_small():
    for n in range(0, 5):
        for can in enumerate_codes(n, 1):
            g = intersection_graph(can)
            w = realizable(g)
            assert w is not None
            assert graphs_isomorphic(intersection_graph(w), g)


def test_realizable_budget():
    verts = [f"v{i}" for i in range(9)]
    with pytest.raises(BudgetError):
        realizable(InterlacementGraph(tuple(verts), frozenset()))
    assert REALIZABLE_MAX_VERTICES == 8


def test_graphs_isomorphic_basics():
    p4 = graph([("a", "b"), ("b", "c"), ("c", "d")])
    p4b = graph([("w", "x"), ("x", "y"), ("y", "z")])
    star = graph([("a", "b"), ("a", "c"), ("a", "d")])
    assert graphs_isomorphic(p4, p4b)
    assert not graphs_isomorphic(p4, star)


def test_graphs_isomorphic_agrees_with_networkx_on_the_atlas():
    nx = pytest.importorskip("networkx")

    def as_graph(h, names):
        return graph([(names[a], names[b]) for a, b in h.edges], extra=[names[v] for v in h.nodes])

    rng = random.Random(1253)
    atlas = nx.graph_atlas_g()  # every graph with at most 7 vertices, up to isomorphism
    assert len(atlas) == 1253
    graphs = [as_graph(h, {v: v for v in h.nodes}) for h in atlas]
    by_shape: dict = {}
    for i, h in enumerate(atlas):
        names = [f"v{j}" for j in h.nodes]
        rng.shuffle(names)
        assert graphs_isomorphic(graphs[i], as_graph(h, dict(zip(h.nodes, names)))), i
        by_shape.setdefault((len(h), tuple(sorted(d for _, d in h.degree()))), []).append(i)
    pairs = 0
    for same in by_shape.values():
        for i, j in itertools.combinations(same, 2):
            assert graphs_isomorphic(graphs[i], graphs[j]) == nx.is_isomorphic(atlas[i], atlas[j]), (i, j)
            pairs += 1
    assert pairs == 3375


def test_parse_adjacency():
    g = parse_adjacency("u: v w\nw: v")
    assert g.vertices == ("u", "v", "w")
    assert {tuple(sorted(e)) for e in g.edges} == {("u", "v"), ("u", "w"), ("v", "w")}
    g = parse_adjacency("u: v; v: w")
    assert {tuple(sorted(e)) for e in g.edges} == {("u", "v"), ("v", "w")}


def test_intersection_graph_requires_one_component():
    with pytest.raises(PreconditionError):
        intersection_graph(code("a b | a b"))


def test_intersection_graph_of_a_framed_graph_builds_no_code(monkeypatch):
    builds = []
    post_init = GaussCode.__post_init__
    k1 = to_framed(load_fixture("k1"))
    expected = intersection_graph(load_fixture("k1"))

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(GaussCode, "__post_init__", counting)
    assert intersection_graph(k1) == expected
    assert builds == []


# ---------------------------------------------------------------------------
# search


def test_bfs_crossed_pair_reaches_bare_circle():
    r = bfs_equivalent(code("a b a b"), code("O"), 4, 2)
    assert r.reached and len(r.path) == 1 and r.path[0].startswith("r2-")


def test_bfs_reflexive():
    r = bfs_equivalent(code("a a"), code("a a"), 2, 1)
    assert r.reached and r.path == ()


def test_bfs_rejects_mismatched_component_counts():
    with pytest.raises(PreconditionError):
        bfs_equivalent(code("a a"), code("a b | a b"), 4, 2)


def test_bfs_symmetric_on_move_related_pairs():
    rng = random.Random(23)
    pairs = []
    while len(pairs) < 15:
        n = rng.randint(0, 4)
        k = rng.randint(1, 2) if n else 1
        a = random_diagram(n, k, rng)
        b = random_moves(a, rng.randint(1, 3), n + 2, rng)
        pairs.append((a, b, n + 3))
    for a, b, budget in pairs:
        fwd = bfs_equivalent(a, b, budget, 5)
        back = bfs_equivalent(b, a, budget, 5)
        assert fwd.reached and back.reached


def test_explore_reports_min_vertices():
    r = explore_moves(code("a b a b"), 4, 2)
    assert r.reached is None
    assert r.min_vertices == 0  # the reduction to the bare circle is in range
    assert r.visited >= 2


def test_the_mirror_kink_gives_the_class_of_side_0():
    checked = 0
    for n in range(5):
        for k in (1, 2):
            for can in enumerate_codes(n, k):
                for loops in (0, 1):
                    d = to_framed(GaussCode(can.words, can.free_loops + loops))
                    for site in ((h, g) for h, g in enumerate(d.mate) if h < g):
                        sides = (canonicalize(moves._apply(d, (moves.R1_UP, (site,), side))) for side in (0, 1))
                        assert len(set(sides)) == 1, (str(can), site)
                        checked += 1
                    # so skipping side 1 loses no child
                    everything = (canonicalize(moves._apply(d, m)) for m in moves._moves(d, n + 2))
                    assert analysis._children(canonicalize(d), n + 2) == tuple(dict.fromkeys(everything))
    assert checked > 1000


@pytest.mark.parametrize("search", ["explore", "bfs"])
@pytest.mark.parametrize("max_vertices, max_depth", [
    (2.5, 1), (2, 1.0), ("3", 1), (None, 1), (2, None), (2, -1), (2, -2),
])
def test_search_bounds_must_be_ints_and_the_depth_non_negative(search, max_vertices, max_depth):
    with pytest.raises(PreconditionError):
        if search == "explore":
            explore_moves(code("a b a b"), max_vertices, max_depth)
        else:
            bfs_equivalent(code("a b a b"), code("O"), max_vertices, max_depth)


def test_explore_matches_the_labelled_search_oracle():
    analysis._children.cache_clear()
    for memo in ("cold", "warm"):
        checked = 0
        for n in range(5):
            for k in (1, 2):
                for can in enumerate_codes(n, k):
                    # and the class with one more free loop, for the loop sites
                    for c in (can, canonicalize(GaussCode(can.words, can.free_loops + 1))):
                        assert explore_moves(c, n + 2, 2) == naive_bfs(c, None, n + 2, 2), (memo, str(c))
                        checked += 1
        assert checked > 150
    info = analysis._children.cache_info()
    assert info.hits >= checked and info.maxsize == 1 << 16


def test_bfs_matches_the_labelled_search_oracle_on_scrambles():
    rng = random.Random(29)
    scrambles = []
    for _ in range(50):
        n = rng.randint(1, 5)
        k = rng.randint(1, 2)
        a = random_diagram(n, k, rng)
        steps = rng.randint(1, 3)
        scrambles.append((a, random_moves(a, steps, n + 2, rng), n + 2, steps))
    analysis._children.cache_clear()
    for _ in ("cold", "warm"):
        reached = 0
        for a, b, max_vertices, steps in scrambles:
            r = bfs_equivalent(b, a, max_vertices, steps)
            assert r == naive_bfs(canonicalize(b), canonicalize(a), max_vertices, steps), (a, b)
            reached += len(r.path) if r.reached else 0
        assert reached > 40


def test_the_search_labels_no_move_but_those_of_its_path(monkeypatch):
    calls = {"_edge": 0, "MoveInstance": 0}
    edge, init = moves._edge, moves.MoveInstance.__init__

    def counting_edge(*args, **kwargs):
        calls["_edge"] += 1
        return edge(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["MoveInstance"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(moves, "_edge", counting_edge)
    monkeypatch.setattr(moves.MoveInstance, "__init__", counting_init)
    assert explore_moves(code("a b a c b c"), 6, 2).visited > 100
    assert calls == {"_edge": 0, "MoveInstance": 0}
    analysis._children.cache_clear()
    for instances in (2, 4):  # once with the memo cold, once warm
        r = bfs_equivalent(code("a a b c c b"), code("O"), 3, 3)
        assert r.reached and len(r.path) == 2
        assert calls == {"_edge": 0, "MoveInstance": instances}


def test_search_stops_at_its_visited_class_budget(monkeypatch):
    visited = explore_moves(code("a b a c b c"), 5, 2).visited
    monkeypatch.setattr(analysis, "SEARCH_MAX_VISITED", visited)
    assert explore_moves(code("a b a c b c"), 5, 2).visited == visited
    monkeypatch.setattr(analysis, "SEARCH_MAX_VISITED", visited - 1)
    with pytest.raises(BudgetError, match=f"more than {visited - 1} classes"):
        explore_moves(code("a b a c b c"), 5, 2)
    with pytest.raises(BudgetError):
        bfs_equivalent(code("a b a c b c"), code("a b c d a b c d"), 5, 2)


# ---------------------------------------------------------------------------
# random generation


def test_random_diagram_deterministic_and_shaped():
    a = random_diagram(4, 2, 123)
    b = random_diagram(4, 2, 123)
    assert a == b
    assert a.chord_count == 4 and a.component_count == 2
    assert random_diagram(0, 1, 5) == GaussCode((), 1)


def test_random_diagram_infeasible():
    with pytest.raises(PreconditionError):
        random_diagram(2, 5, 0)


def test_random_moves_identity_and_conservation():
    c = code("a b a c b c")
    assert random_moves(c, 0, 8, 1) == c
    for seed in range(15):
        moved = random_moves(c, 4, 8, seed)
        assert moved.component_count == c.component_count


@pytest.mark.parametrize("fn, args, match", [
    (enumerate_codes, (2.5, 1), "n must be an int"),
    (enumerate_codes, (2, 1.0), "k must be an int"),
    (enumerate_codes, (2.0, 1), "n must be an int"),  # not (2, 1)'s cache entry
    (random_diagram, (2.5, 1, 0), "n must be an int"),
    (random_diagram, (2, 1.0, 0), "k must be an int"),
    (random_moves, (code("a b a b"), -2, 4, 0), "count must be non-negative"),
    (random_moves, (code("a b a b"), 1.0, 4, 0), "count must be an int"),
    (random_moves, (code("a b a b"), 1, 4.0, 0), "max_vertices must be an int"),
])
def test_size_arguments_must_be_ints(fn, args, match):
    enumerate_codes(2, 1)
    with pytest.raises(PreconditionError, match=match):
        fn(*args)


# ---------------------------------------------------------------------------
# fixtures


def test_fixture_search_first_hit_matches_shipped_files():
    k1, l1 = search_minimal_fixtures(limit=1)[0]
    assert canonicalize(k1) == canonicalize(load_fixture("k1"))
    assert canonicalize(l1) == canonicalize(load_fixture("l1"))


def test_k1_fixture_properties():
    k1 = load_fixture("k1")
    assert k1.chord_count == 9 and k1.component_count == 1
    assert gaussian_parity(k1).all_even()
    g = interlacement(k1)
    hubs = [v for v in g.vertices if g.degree(v) == 8]
    assert len(hubs) == 1
    assert find_r2(to_framed(k1)) == []
    cert = lower_bound_knot(k1)
    assert cert.bound == 9 and cert.tight and cert.witness_invariant == "kdelta"


def test_l1_fixture_properties():
    l1 = load_fixture("l1")
    assert l1.chord_count == 8 and l1.component_count == 2
    assert component_parity(l1).all_odd()
    assert source_sink_orientable(to_framed(l1))
    assert find_r2(to_framed(l1)) == []
    kb = kauffman_bracket(l1)
    assert set(kb.terms) == {canonicalize(l1)}
    cert = lower_bound_link2(l1)
    assert cert.bound == 8 and cert.tight
