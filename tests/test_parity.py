import random

import pytest
from hypothesis import given, settings, strategies as st

from freeknot import parity as parity_module
from freeknot.analysis import load_fixture, random_diagram, random_moves
from freeknot.diagrams import (
    CanonicalCode,
    CodeError,
    FramedDiagram,
    GaussCode,
    PreconditionError,
    canonicalize,
    circles,
    enumerate_codes,
    parse_gauss_code,
    to_framed,
)
from freeknot.moves import find_all_moves
from freeknot.parity import (
    COMPONENT,
    GAUSSIAN,
    InterlacementGraph,
    ParityAssignment,
    check_parity_axioms,
    component_parity,
    gaussian_parity,
    interlacement,
    is_irreducibly_odd,
    source_sink_orientable,
)
from oracles import (
    _perfect_matchings,
    naive_component_parity,
    naive_gaussian_parity,
    naive_interlacement,
    naive_is_irreducibly_odd,
    naive_source_sink_orientable,
)


def code(t):
    return parse_gauss_code(t)


def edge_set(g):
    return {tuple(sorted(e)) for e in g.edges}


# ---------------------------------------------------------------------------
# interlacement


def test_interlacement_examples():
    assert edge_set(interlacement(code("a b a b"))) == {("a", "b")}
    assert edge_set(interlacement(code("a b b a"))) == set()
    assert edge_set(interlacement(code("a b a c b c"))) == {("a", "b"), ("b", "c")}


def test_interlacement_cross_circle_chords_have_no_edges():
    g = interlacement(code("a b | a b"))
    assert edge_set(g) == set()


def test_interlacement_degree_parity_is_canonical_invariant():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        c = random_diagram(n, 1, rng)
        g = interlacement(c)
        degs = sorted(g.degree(v) % 2 for v in g.vertices)
        can = canonicalize(c)
        g2 = interlacement(can.code())
        assert sorted(g2.degree(v) % 2 for v in g2.vertices) == degs


def test_dot_export():
    dot = interlacement(code("a b a b")).to_dot()
    assert dot.splitlines()[0] == "graph interlacement {"
    assert '  "a" -- "b";' in dot
    assert dot.endswith("}")


@pytest.mark.parametrize("vertices, edges", [
    (("a",), frozenset({frozenset("ab")})),  # an edge to an unlisted vertex
    (("a",), frozenset({frozenset("a")})),  # a one-element edge
    (("a", "a"), frozenset()),  # a repeated vertex
    (("a", "b"), {frozenset("ab")}),  # edges not a frozenset
    (("a", "b"), frozenset({("a", "b")})),  # an edge not a frozenset
])
def test_interlacement_graph_rejects_malformed_input(vertices, edges):
    with pytest.raises(CodeError, match="interlacement graph needs"):
        InterlacementGraph(vertices, edges)


# ---------------------------------------------------------------------------
# parities


def test_gaussian_parity_examples():
    assert gaussian_parity(code("a a")).odd == frozenset()
    assert gaussian_parity(code("a b a b")).odd == frozenset({"a", "b"})
    assert gaussian_parity(code("a b a c b c")).odd == frozenset({"a", "c"})


def test_gaussian_parity_requires_one_component():
    with pytest.raises(PreconditionError):
        gaussian_parity(code("a b | a b"))


def test_component_parity_examples():
    assert component_parity(code("a b | a b")).odd == frozenset({"a", "b"})
    assert component_parity(code("a a | b b")).odd == frozenset()
    assert component_parity(code("a a b | b")).odd == frozenset({"b"})


def test_component_parity_requires_two_components():
    with pytest.raises(PreconditionError):
        component_parity(code("a a"))


# ---------------------------------------------------------------------------
# source-sink orientability


def test_orientable_examples():
    assert source_sink_orientable(to_framed(code("a b b a"))) is True
    assert source_sink_orientable(to_framed(code("a b a b"))) is False
    assert source_sink_orientable(to_framed(GaussCode((), 0))) is True
    assert source_sink_orientable(to_framed(GaussCode((), 2))) is True
    # edges that join two slots of one vertex: a constraint pairs an edge with itself
    assert source_sink_orientable(to_framed(code("a | a"))) is False
    assert source_sink_orientable(FramedDiagram(("a",), [1, 0, 3, 2])) is True
    assert source_sink_orientable(FramedDiagram(("a",), [2, 3, 0, 1])) is False


def test_orientability_matches_edge_constraint_oracle():
    # every framed graph on at most 3 vertices, every other one with a free
    # loop: 1-6 circles, kinks, and the opposite-slot loops of the examples above
    seen_circles = set()
    for v in range(4):
        for i, matching in enumerate(_perfect_matchings(tuple(range(4 * v)))):
            mate = [0] * (4 * v)
            for a, b in matching:
                mate[a], mate[b] = b, a
            seen_circles.add(len(circles(mate)))
            d = FramedDiagram(tuple(range(v)), mate, i & 1)
            assert source_sink_orientable(d) == naive_source_sink_orientable(d), d
    assert seen_circles >= {1, 2, 3}
    rng = random.Random(3)  # and larger ones: scrambles of 2-9 chords on 1-4 circles
    for _ in range(500):
        c = random_diagram(rng.randint(2, 9), rng.randint(1, 4), rng)
        c = random_moves(c, rng.randint(0, 5), 12, rng)
        assert source_sink_orientable(c) == naive_source_sink_orientable(c), c


def test_orientability_equals_all_even_small_sweep():
    for n in range(0, 5):
        for can in enumerate_codes(n, 1):
            even = gaussian_parity(can.code()).all_even()
            for form in (can, can.code(), to_framed(can)):
                assert source_sink_orientable(form) == even


# ---------------------------------------------------------------------------
# irreducible oddness


def test_irreducibly_odd_examples():
    assert is_irreducibly_odd(code("a b a b")) is False  # nothing separates a from b
    assert is_irreducibly_odd(code("a a")) is False  # a is even


def test_irreducibly_odd_requires_one_component():
    with pytest.raises(PreconditionError):
        is_irreducibly_odd(code("a b | a b"))


# ---------------------------------------------------------------------------
# the bit-mask pass against the pairwise oracle

FUNCTIONS = (
    (interlacement, naive_interlacement),
    (gaussian_parity, naive_gaussian_parity),
    (component_parity, naive_component_parity),
    (is_irreducibly_odd, naive_is_irreducibly_odd),
)


def _outcome(fn, form):
    """The result of ``fn(form)``, or the message of its ``PreconditionError``."""
    try:
        return fn(form)
    except PreconditionError as e:
        return ("PreconditionError", str(e))


def _forms(c, rng):
    """A diagram as its class, a code, its framed graph, a code relabelled
    by shuffled strings (so neither first occurrence nor vertex order is the
    order of the names) and that code's framed graph."""
    can = canonicalize(c)
    names = [f"c{i}" for i in range(can.chord_count)]
    rng.shuffle(names)
    strings = GaussCode(tuple(tuple(names[x] for x in w) for w in can.words), can.free_loops)
    return can, c, to_framed(c), strings, to_framed(strings)


def test_parity_matches_the_naive_oracle_exhaustive_small():
    rng = random.Random(16)
    codes = [can.code() for n in range(6) for k in (1, 2, 3) for can in enumerate_codes(n, k)]
    for _ in range(300):
        n = rng.randint(2, 12)
        c = random_diagram(n, rng.randint(1, 3), rng)
        codes.append(GaussCode(c.words, rng.randint(0, 1)))
    for c in codes:
        for form in _forms(c, rng):
            for fn, oracle in FUNCTIONS:
                assert _outcome(fn, form) == _outcome(oracle, form), (fn.__name__, c)


def test_parity_rejects_an_invalid_class_and_takes_labels_that_do_not_compare():
    bad = CanonicalCode(((0, 0, 0),), 0)
    mixed = GaussCode((("a", 1, "a", 1),))
    for fn, oracle in FUNCTIONS:
        with pytest.raises(CodeError):
            fn(bad)
        assert _outcome(fn, mixed) == _outcome(oracle, mixed)


def test_framed_graphs_are_read_without_building_a_code(monkeypatch):
    builds = []
    post_init = GaussCode.__post_init__
    k1, l1 = to_framed(load_fixture("k1")), to_framed(load_fixture("l1"))

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(GaussCode, "__post_init__", counting)
    interlacement(k1)
    gaussian_parity(k1)
    is_irreducibly_odd(k1)
    interlacement(l1)
    component_parity(l1)
    assert builds == []


# ---------------------------------------------------------------------------
# move axioms


def test_axioms_on_small_enumeration():
    for n in range(0, 4):
        for k, rule in ((1, GAUSSIAN), (2, COMPONENT)):
            for can in enumerate_codes(n, k):
                d = to_framed(can.code())
                for m in find_all_moves(d, d.vertex_count + 2):
                    assert check_parity_axioms(d, m, rule) == []


def _slot_0_leads_up(d, rule: str) -> ParityAssignment:
    """A wrong rule: a chord is odd when slot 0 of its vertex is joined to a
    higher half-edge.  It breaks every axiom on some move of 4 chords or fewer."""
    d = to_framed(d)
    odd = frozenset(v for i, v in enumerate(d.labels) if d.mate[4 * i] > 4 * i)
    return ParityAssignment(rule, odd, tuple(sorted(d.labels, key=str)))


def test_axiom_checker_reports_each_violation_of_a_wrong_rule(monkeypatch):
    real = parity_module.parity
    monkeypatch.setattr(parity_module, "parity",
                        lambda d, rule: real(d, rule) if rule in (GAUSSIAN, COMPONENT) else _slot_0_leads_up(d, rule))
    reports = {GAUSSIAN: [], COMPONENT: [], "wrong": []}
    for n in range(5):
        for k, rule in ((1, GAUSSIAN), (2, COMPONENT)):
            for can in enumerate_codes(n, k):
                d = to_framed(can.code())
                for m in find_all_moves(d, d.vertex_count + 2):
                    reports[rule] += check_parity_axioms(d, m, rule)
                    reports["wrong"] += check_parity_axioms(d, m, "wrong")
    assert reports[GAUSSIAN] == reports[COMPONENT] == []
    for start in ("spectator ", "R1 crossing ", "added R1 crossing ", "R2 pair ", "added R2 pair ",
                  "R3 corner ", "R3 triangle "):
        assert any(msg.startswith(start) for msg in reports["wrong"]), start


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_axioms_on_random_diagrams(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    k = rng.randint(1, 2)
    if n == 0:
        k = 1
    rule = GAUSSIAN if k == 1 else COMPONENT
    c = random_moves(random_diagram(n, k, rng), rng.randint(0, 3), n + 2, rng)
    d = to_framed(c)
    for m in find_all_moves(d, d.vertex_count + 2):
        assert check_parity_axioms(d, m, rule) == []
