import random

import pytest
from hypothesis import given, settings, strategies as st

from freeknot.diagrams import (
    CodeError,
    FramedDiagram,
    GaussCode,
    as_code,
    canonicalize,
    component_count,
    enumerate_codes,
    from_framed,
    parse_gauss_code,
    render_gauss_code,
    to_framed,
    unicursal_components,
    _perfect_matchings,
    _matching_to_words,
)
from oracles import brute_canonical


def code(t):
    return parse_gauss_code(t)


# ---------------------------------------------------------------------------
# parsing


def test_parse_smallest_code():
    c = code("a a")
    assert c.component_count == 1 and c.chord_count == 1


def test_parse_alternating_two_chord_word():
    c = code("a b a b")
    assert c.component_count == 1 and c.chord_count == 2


def test_parse_two_components_shared_chords():
    c = code("a b | a b")
    assert c.component_count == 2 and c.chord_count == 2
    for w in c.words:
        assert set(w) == {"a", "b"}


def test_parse_rejects_single_occurrence():
    with pytest.raises(CodeError, match="b"):
        code("a b a")


def test_parse_empty_input_is_empty_diagram():
    c = code("")
    assert c == GaussCode((), 0)
    assert c.chord_count == 0 and c.component_count == 0


def test_parse_free_loops_and_render():
    c = code("O | a a")
    assert c.free_loops == 1 and c.chord_count == 1
    assert render_gauss_code(c) == "O | a a"


def test_parse_rejects_reserved_token_inside_word():
    with pytest.raises(CodeError):
        code("O a a")


def test_parse_rejects_malformed_token():
    with pytest.raises(CodeError):
        code("a* a*")


def test_parse_rejects_empty_component():
    with pytest.raises(CodeError):
        code("a a |")


@pytest.mark.parametrize("text", ["a ² a ²", "é x é x"])
def test_parse_rejects_non_ascii_labels(text):
    # str.isalnum() accepts these; the grammar's labels are [A-Za-z0-9_]
    with pytest.raises(CodeError, match="malformed token"):
        code(text)


# ---------------------------------------------------------------------------
# framed graphs


def test_to_framed_single_chord_structure():
    d = to_framed(code("a a"))
    assert d.vertex_count == 1
    # both edges join non-opposite slots of the single vertex
    for h, g in d.edges():
        assert h[0] == g[0] == "a"
        assert g[1] != (h[1] + 2) % 4
    assert component_count(d) == 1


def test_to_framed_empty():
    d = to_framed(code(""))
    assert d.vertex_count == 0 and d.free_loops == 0
    assert component_count(d) == 0


def test_every_form_converts_through_as_code_and_to_framed():
    c = code("O | a b c a b c")
    d = to_framed(c)
    can = canonicalize(c)
    assert to_framed(d) is d
    assert to_framed(can) == to_framed(can.code())
    assert as_code(c) is c and as_code(can) == can.code()
    for form in (c, d, can):
        assert canonicalize(as_code(form)) == can


def test_round_trip_three_chords():
    c = code("a b c a b c")
    assert canonicalize(from_framed(to_framed(c))) == canonicalize(c)


def test_unicursal_component_counts():
    assert component_count(to_framed(code("a b a b"))) == 1
    assert component_count(to_framed(code("a b | a b"))) == 2
    assert component_count(FramedDiagram({}, 3)) == 3


def test_unicursal_components_cover_every_edge_once():
    d = to_framed(code("a b a c b c"))
    seqs = unicursal_components(d)
    seen = set()
    for seq in seqs:
        for h in seq:
            v, s = h
            assert (v, s) not in seen
            seen.add((v, s))
            seen.add((v, (s + 2) % 4))
    assert seen == set(d.mate)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_relabel_rotate():
    assert canonicalize(code("b a b a")) == canonicalize(code("a b a b"))


def test_canonical_rotation():
    assert canonicalize(code("a b b a")) == canonicalize(code("b a a b"))


def test_canonical_distinguishes_classes_against_brute_orbit():
    c1, c2 = code("a b a b"), code("a b b a")
    assert brute_canonical(c1) != brute_canonical(c2)
    assert canonicalize(c1) == brute_canonical(c1)
    assert canonicalize(c2) == brute_canonical(c2)
    assert canonicalize(c1) != canonicalize(c2)


def test_canonical_idempotent():
    for t in ("a b a b", "a b | a b", "O | x y y x", "a b c a c b"):
        can = canonicalize(code(t))
        assert canonicalize(can) == can
        assert canonicalize(parse_gauss_code(str(can))) == can


def _random_code(rng: random.Random, n: int, k: int) -> GaussCode:
    from freeknot.analysis import random_diagram

    return random_diagram(n, k, rng)


def _scramble(rng: random.Random, c: GaussCode) -> GaussCode:
    labels = c.labels()
    new_names = [f"s{i}" for i in range(len(labels))]
    rng.shuffle(new_names)
    ren = dict(zip(labels, new_names))
    words = []
    for w in c.words:
        w = tuple(ren[x] for x in w)
        r = rng.randrange(len(w))
        w = w[r:] + w[:r]
        if rng.random() < 0.5:
            w = w[::-1]
        words.append(w)
    rng.shuffle(words)
    return GaussCode(tuple(words), c.free_loops)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonical_constant_on_symmetry_orbit(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 5)
    k = rng.randint(1, 3) if n == 0 else rng.randint(1, min(3, 2 * n))
    c = _random_code(rng, n, k)
    assert canonicalize(_scramble(rng, c)) == canonicalize(c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonical_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 4)
    k = rng.randint(1, 2) if n == 0 else rng.randint(1, min(3, 2 * n))
    c = _random_code(rng, n, k)
    assert canonicalize(c) == brute_canonical(c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_preserves_canonical_form(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 5)
    k = 1 if n == 0 else rng.randint(1, min(3, 2 * n))
    c = _random_code(rng, n, k)
    assert canonicalize(from_framed(to_framed(c))) == canonicalize(c)
    assert component_count(to_framed(c)) == c.component_count


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_one_chord():
    assert [str(c) for c in enumerate_codes(1, 1)] == ["a a"]


def test_enumerate_two_chords_by_hand():
    raw = ["a a b b", "a b b a", "a b a b"]
    classes = {canonicalize(code(t)) for t in raw}
    assert len(classes) == 2
    assert set(enumerate_codes(2, 1)) == classes


def test_enumerate_zero_chords():
    assert [str(c) for c in enumerate_codes(0, 1)] == ["O"]


def test_enumerate_matches_raw_double_occurrence_dedup():
    n = 3
    matchings = list(_perfect_matchings(tuple(range(2 * n))))
    assert len(matchings) == 15  # (2n-1)!!
    classes = {canonicalize(GaussCode(_matching_to_words(m, (2 * n,)))) for m in matchings}
    assert set(enumerate_codes(n, 1)) == classes


def test_enumerate_is_canonical_and_sorted():
    codes = enumerate_codes(3, 2)
    assert list(codes) == sorted(codes)
    for c in codes:
        assert canonicalize(c) == c
        assert c.component_count == 2 and c.chord_count == 3
