import random

import pytest
from hypothesis import given, settings, strategies as st

from freeknot.analysis import random_diagram, random_moves
from freeknot.diagrams import (
    GaussCode,
    PreconditionError,
    canonicalize,
    enumerate_codes,
    parse_gauss_code,
    to_framed,
)
from freeknot.moves import find_all_moves
from freeknot.parity import (
    COMPONENT,
    GAUSSIAN,
    check_parity_axioms,
    component_parity,
    gaussian_parity,
    interlacement,
    is_irreducibly_odd,
    source_sink_orientable,
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


def test_orientability_equals_all_even_small_sweep():
    for n in range(0, 5):
        for can in enumerate_codes(n, 1):
            assert source_sink_orientable(to_framed(can.code())) == gaussian_parity(can.code()).all_even()


# ---------------------------------------------------------------------------
# irreducible oddness


def test_irreducibly_odd_examples():
    assert is_irreducibly_odd(code("a b a b")) is False  # nothing separates a from b
    assert is_irreducibly_odd(code("a a")) is False  # a is even


def test_irreducibly_odd_requires_one_component():
    with pytest.raises(PreconditionError):
        is_irreducibly_odd(code("a b | a b"))


# ---------------------------------------------------------------------------
# move axioms


def test_axioms_on_small_enumeration():
    for n in range(0, 4):
        for k, rule in ((1, GAUSSIAN), (2, COMPONENT)):
            for can in enumerate_codes(n, k):
                d = to_framed(can.code())
                for m in find_all_moves(d, d.vertex_count + 2):
                    assert check_parity_axioms(d, m, rule) == []


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
