import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    _canonical,
    _grow,
    enumerate_codes,
    from_framed,
    parse_gauss_code,
    render_gauss_code,
    splice_out,
    to_framed,
    unicursal_components,
)
from freeknot.brackets import resolve
from freeknot.moves import apply_r2_decrease, find_r2
from oracles import (
    brute_canonical,
    naive_canonicalize,
    naive_splice_out,
    naive_unicursal_components,
    raw_arrangements,
)


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
    assert component_count(to_framed(GaussCode((), 3))) == 3


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
    assert seen == {h for e in d.edges() for h in e}


def test_framed_diagram_accepts_a_valid_matching():
    # "a a": the exits 2 and 3 enter slots 1 and 0
    assert FramedDiagram(("a",), [3, 2, 1, 0]) == to_framed(code("a a"))
    assert FramedDiagram((), [], 2) == to_framed(code("O | O"))


@pytest.mark.parametrize("labels, mate, loops, match", [
    (("a",), [1, 2, 3, 0], 0, "not an involution"),
    (("a",), [3, 2, 1, 7], 0, "not an involution"),
    (("a",), [0, 2, 1, 3], 0, "matched to itself"),
    (("a",), [1, 0], 0, "slots 0..3"),
    (("a", "b"), [3, 2, 1, 0], 0, "slots 0..3"),
    ((), [], -1, "non-negative"),
    (("a",), (3, 2, 1, 0), 0, "a tuple and mate a list"),
    (["a"], [3, 2, 1, 0], 0, "a tuple and mate a list"),
    (("b", "a"), [3, 2, 1, 0, 7, 6, 5, 4], 0, "distinct and increasing"),
    (("a", "a"), [3, 2, 1, 0, 7, 6, 5, 4], 0, "distinct and increasing"),
    (("a", 1), [3, 2, 1, 0, 7, 6, 5, 4], 0, "must compare"),
    ((), [], 1.5, "non-negative int"),
])
def test_framed_diagram_rejects_invalid_input(labels, mate, loops, match):
    with pytest.raises(CodeError, match=match):
        FramedDiagram(labels, mate, loops)


@pytest.mark.parametrize("words, loops, match", [
    ((), -1, "non-negative"),
    ((("a", "a"),), 1.5, "non-negative int"),
    (((),), 0, "empty component"),
    ((("a", "b", "a"),), 0, "exactly twice"),
    (((1, "a", 1, "a"),), 0, "must compare"),
])
def test_gauss_code_rejects_invalid_input(words, loops, match):
    with pytest.raises(CodeError, match=match):
        to_framed(GaussCode(words, loops))


def _small_framed_diagrams():
    """The framed graph of every raw arrangement with 1-4 chords on 1-3 circles."""
    for n in range(1, 5):
        for k in range(1, 4):
            for words in raw_arrangements(n, k):
                yield to_framed(GaussCode(words))


def test_splice_out_matches_the_dict_oracle_exhaustive_small():
    checked = 0
    for d in _small_framed_diagrams():
        for v in d.vertices():
            for pairing in (PAIRING_A, PAIRING_B, PAIRING_FLAT):
                r = splice_out(d, {v: pairing})
                assert (r.edges(), r.free_loops) == naive_splice_out(d, {v: pairing}), (from_framed(d), v)
                checked += 1
        vs = d.vertices()
        r = splice_out(d, {vs[0]: PAIRING_FLAT, vs[-1]: PAIRING_A})
        assert (r.edges(), r.free_loops) == naive_splice_out(d, {vs[0]: PAIRING_FLAT, vs[-1]: PAIRING_A})
    assert checked == 38832  # 3 pairings on each vertex of 3,308 diagrams


def test_unicursal_components_match_the_dict_oracle_exhaustive_small():
    for d in _small_framed_diagrams():
        assert unicursal_components(d) == naive_unicursal_components(d), from_framed(d)


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


def test_canonical_matches_brute_force_exhaustive_small():
    checked = 0
    for n in range(1, 5):
        for k in range(1, 4):
            for words in raw_arrangements(n, k):
                for loops in (0, 1):
                    c = GaussCode(words, loops)
                    assert canonicalize(c) == brute_canonical(c), c
                    checked += 1
    assert checked == 6616  # 3,308 arrangements, with and without a free loop


def test_canonical_matches_naive_on_scrambled_random_codes():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(6, 12)
        c = _scramble(rng, _random_code(rng, n, rng.randint(1, 3)))
        assert canonicalize(c) == naive_canonicalize(c), c


@pytest.mark.parametrize("text", [
    "a b c | a b c",
    "a b | c d | a c b d",
    "a b | a b",
    "a b c d | a b c d",
    "a b c | c b a",
    "a b | b c | c a",
    "a a | b b | c c",
    "a b c d e f | a c e b d f",
])
def test_canonical_matches_naive_on_symmetric_words(text):
    c = code(text)
    assert canonicalize(c) == naive_canonicalize(c)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(7) for k in (1, 2)] + [(5, 3), (4, 4)])
def test_canonical_walk_selection_matches_naive_on_scrambled_classes(n, k):
    # the uncached function, so that the scrambles stay out of the cache
    rng = random.Random(f"{n}:{k}")
    for c in enumerate_codes(n, k):
        s = _scramble(rng, c.code())
        assert _canonical.__wrapped__(s.words, s.free_loops) == naive_canonicalize(s) == c, s


@pytest.mark.parametrize("text, form", [
    # a chord that halves its circle has two shortest arcs, and the least
    # walk here runs along the one a single arc per chord would miss
    ("a b a c | b d g f e c d e g f", "a b a c | b d e f g c d f g e"),
    ("a b | a b", "a b | a b"),
    ("a b c | c b a", "a b c | a b c"),
    # ties at depth 1: the four walks of "y z" after "x x", and the six
    # ways to place two components of the triangle
    ("y z | x x | z y", "a a | b c | b c"),
    ("u v | v w | w u", "a b | a c | b c"),
])
def test_canonical_named_cases(text, form):
    c = code(text)
    assert str(canonicalize(c)) == form
    assert canonicalize(c) == naive_canonicalize(c) == brute_canonical(c)


def test_canonical_code_contract():
    a = CanonicalCode(((0, 1), (0, 1)), 1)
    b = canonicalize(code("O | x y | y x"))
    assert repr(a) == "CanonicalCode(words=((0, 1), (0, 1)), free_loops=1)"
    assert str(a) == "O | a b | a b" and CanonicalCode() == CanonicalCode((), 0)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a.chord_count == 2 and a.component_count == 3
    # ordered as (words, free_loops)
    assert sorted([a, CanonicalCode(((0, 0),), 2), CanonicalCode(((0, 1), (0, 1)), 0)]) == [
        CanonicalCode(((0, 0),), 2), CanonicalCode(((0, 1), (0, 1)), 0), a]
    with pytest.raises(AttributeError):
        a.words = ()
    g = a.code()
    assert a != g and g != a and canonicalize(g) == a


def test_canonical_code_builds_only_valid_gauss_codes():
    with pytest.raises(CodeError):
        CanonicalCode(((0, 0, 0),), 0).code()
    with pytest.raises(TypeError):  # no knob skips the checks
        GaussCode((("a", "a"),), 0, False)


def test_canonicalize_takes_every_form_and_caches_a_graph_by_its_vertex_numbers():
    d = to_framed(code("O | a b c a d | b c d"))
    g = from_framed(d)
    names = {"a": "p", "b": "q", "c": "r", "d": "s"}
    relabelled = GaussCode(tuple(tuple(names[x] for x in w) for w in g.words), g.free_loops)
    can = canonicalize(d)
    assert isinstance(can, CanonicalCode)
    assert canonicalize(g) == canonicalize(relabelled) == canonicalize(can) == can
    # the same graph under other labels: the same key, so a hit
    e = to_framed(relabelled)
    assert e.mate == d.mate and e.labels != d.labels
    hits = canonicalize.cache_info().hits
    assert canonicalize(e) == can
    assert canonicalize.cache_info().hits == hits + 1


def _found_family(evens: int) -> GaussCode:
    """``e0 o0 e0 o1 e1 o2 e1 o3 ... | o0 o1 ...``: each even chord encloses
    one odd crossing, so no smoothing closes a free loop, and the states
    split into many symmetric components."""
    word = []
    for i in range(evens):
        word += [f"e{i}", f"o{2 * i}", f"e{i}", f"o{2 * i + 1}"]
    return GaussCode((tuple(word), tuple(f"o{i}" for i in range(2 * evens))))


def test_canonical_matches_naive_on_reduced_states_of_the_symmetric_family():
    d = to_framed(_found_family(8))
    evens = [f"e{i}" for i in range(8)]
    sizes = []
    for choice in itertools.product("AB", repeat=len(evens)):
        s = resolve(d, dict(zip(evens, choice)))
        while insts := find_r2(s):
            s = apply_r2_decrease(s, insts[0])
        c = from_framed(s)
        assert canonicalize(c) == naive_canonicalize(c), c
        sizes.append(len(c.words))
    assert len(sizes) == 256 and max(sizes) == 10


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


@pytest.mark.parametrize("n, k", [(n, k) for n in range(5) for k in range(5)] + [(5, 1), (5, 2), (5, 3), (6, 1)])
def test_enumerate_matches_raw_double_occurrence_dedup(n, k):
    # the growth against the raw scan: every arrangement of n chords on the
    # words, for every count of free loops among the k components
    classes = {
        canonicalize(GaussCode(words, loops))
        for loops in range(k + 1)
        for words in raw_arrangements(n, k - loops)
    }
    codes = enumerate_codes(n, k)
    assert len(codes) == len(classes) and set(codes) == classes
    if k == 1 and n > 0:
        assert sum(1 for _ in raw_arrangements(n, 1)) == math.prod(range(1, 2 * n, 2))  # (2n-1)!!


def test_enumeration_leaves_the_canonicalize_cache_alone():
    # both caches cold, so that no grown code can be a hit
    enumerate_codes.cache_clear()
    canonicalize.cache_clear()
    assert len(enumerate_codes(5, 2)) == 273
    assert canonicalize.cache_info().currsize == 0


@pytest.mark.parametrize("n, k", [(3, 3), (4, 3), (3, 4)])
def test_grow_yields_each_code_once(n, k):
    grown = [g for c in enumerate_codes(n, k) for g in _grow(c)]
    assert len(grown) == len(set(grown))


def test_enumerate_is_canonical_and_sorted():
    codes = enumerate_codes(3, 2)
    assert list(codes) == sorted(codes)
    for c in codes:
        assert canonicalize(c) == c
        assert c.component_count == 2 and c.chord_count == 3


@pytest.mark.parametrize("n, classes", enumerate([1, 1, 2, 5, 17, 79, 554, 5283]))
def test_enumerate_one_circle_class_counts(n, classes):
    # OEIS A007769: chord diagrams up to rotation and reflection
    assert len(enumerate_codes(n, 1)) == classes


def test_enumerate_five_chords_on_three_circles():
    assert len(enumerate_codes(5, 3)) == 522
