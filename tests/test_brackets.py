import itertools
import random

import pytest

from freeknot import brackets
from freeknot.analysis import load_fixture, random_diagram, random_moves
from freeknot.brackets import (
    CTX_KNOT,
    CTX_LINK,
    CTX_LINK2,
    STATE_SUM_MAX_EVENS,
    alex_bracket,
    delta,
    delta_terms,
    formal_sum,
    kauffman_bracket,
    kdelta,
    resolve,
    split_smoothing,
)
from freeknot.diagrams import (
    BudgetError,
    CodeError,
    GaussCode,
    PreconditionError,
    canonicalize,
    component_count,
    enumerate_codes,
    parse_gauss_code,
    to_framed,
)
from freeknot.moves import apply_r1_increase, reduce_r2
from freeknot.parity import gaussian_parity
from oracles import naive_alex_bracket, naive_kauffman_bracket, naive_kdelta, word_smooth


def code(t):
    return parse_gauss_code(t)


def canon(t):
    return canonicalize(code(t))


def terms_of(s):
    return sorted(str(t) for t in s.terms)


# ---------------------------------------------------------------------------
# smoothing


def test_smooth_single_kink_free_loop_counts():
    d = to_framed(code("a a"))
    assert sorted(resolve(d, {"a": c}).free_loops for c in "AB") == [1, 2]


def test_smooth_splits_crossed_pair():
    d = to_framed(code("a b a b"))
    split = split_smoothing(d, "a")
    assert canonicalize(split) == canon("b | b")


def test_smooth_matches_word_surgery_oracle():
    cases = ["a b a b", "a b b a", "a b c a b c", "a b a c b c", "a b | a b", "a a b | b"]
    for t in cases:
        c = code(t)
        d = to_framed(c)
        for v in d.vertices():
            got = sorted(canonicalize(resolve(d, {v: ch})) for ch in "AB")
            expected = sorted(canonicalize(r) for r in word_smooth(c, v))
            assert got == expected, (t, v)


def test_component_count_law_exhaustive_small():
    for n in range(1, 5):
        for k in (1, 2, 3):
            for can in enumerate_codes(n, k):
                c = can.code()
                d = to_framed(c)
                base = component_count(d)
                in_word = {}
                for wi, w in enumerate(c.words):
                    for lab in w:
                        in_word.setdefault(lab, []).append(wi)
                for v in d.vertices():
                    counts = sorted(component_count(resolve(d, {v: ch})) for ch in "AB")
                    if in_word[v][0] == in_word[v][1]:
                        assert counts == sorted([base, base + 1])
                    else:
                        assert counts == [base - 1, base - 1]


# ---------------------------------------------------------------------------
# formal sums


def test_formal_sum_xor_is_symmetric_difference():
    a, b = canon("a a"), canon("O")  # both R2-irreducible one-component classes
    s1 = formal_sum(CTX_KNOT, {a, b})
    s2 = formal_sum(CTX_KNOT, {b})
    assert (s1 ^ s2).terms == {a}
    assert (s1 ^ s1).terms == frozenset()


def test_formal_sum_xor_does_not_recheck_terms(monkeypatch):
    a, b = canon("a a"), canon("O")
    s1 = formal_sum(CTX_KNOT, {a, b})
    s2 = formal_sum(CTX_KNOT, {b})
    calls = []
    monkeypatch.setattr(brackets, "_check_member", lambda *args: calls.append(args))
    assert (s1 ^ s2).terms == {a}
    assert calls == []


def test_formal_sum_rejects_wrong_context_members():
    with pytest.raises(CodeError):
        formal_sum(CTX_KNOT, {canon("a b | a b")})  # two components
    with pytest.raises(CodeError):
        formal_sum(CTX_LINK, {canon("O")})  # free loop is zero here
    with pytest.raises(CodeError):
        formal_sum(CTX_LINK2, {canon("a a")})  # one component
    with pytest.raises(CodeError):
        formal_sum(CTX_KNOT, {canon("a b b a")})  # reducible
    with pytest.raises(CodeError):
        formal_sum("bogus")  # no such context, even with no terms


def test_formal_sum_rejects_mixed_addition():
    with pytest.raises(PreconditionError):
        formal_sum(CTX_KNOT) ^ formal_sum(CTX_LINK)


# ---------------------------------------------------------------------------
# delta


def test_delta_of_free_loop_is_zero():
    assert delta(code("O")).terms == frozenset()


def test_delta_crossed_pair_cancels():
    raw = delta_terms(code("a b a b"))
    assert [str(t) for _, t, _ in raw] == [str(canon("a | a"))] * 2
    assert delta(code("a b a b")).terms == frozenset()


def test_delta_flat_trefoil_terms_die_by_zero_rule():
    # each split is two circles crossing twice; the bigon collapses them to
    # bare circles, so every summand is zero in the free-loop-killed space
    raw = delta_terms(code("a b c a b c"))
    assert len(raw) == 3
    for v, t, saw in raw:
        assert saw is True
    assert delta(code("a b c a b c")).terms == frozenset()
    # oracle: word surgery of each chord gives two circles crossing twice
    for v in "abc":
        two_comp = [r for r in word_smooth(code("a b c a b c"), v) if r.component_count == 2]
        assert [canonicalize(r) for r in two_comp] == [canon("b c | b c")]
        assert reduce_r2(two_comp[0]) == (canonicalize(GaussCode((), 2)), True)


def test_delta_requires_one_component():
    with pytest.raises(PreconditionError):
        delta(code("a b | a b"))


def test_delta_nontrivial_support():
    # splitting the 1-chord diagram of two circles crossed once is not
    # possible; use a 3-chord word whose splits survive
    c = code("a b a c b c")
    s = delta(c)
    for t in s.terms:
        assert t.component_count == 2 and not t.free_loops


def test_delta_summand_of_an_added_kink_dies():
    c = code("a b a c b c")
    d = to_framed(c)
    for e in d.edges():
        kinked = apply_r1_increase(d, e, 0)
        (new_v,) = set(kinked.vertices()) - set(d.vertices())
        raw = {v: saw for v, _, saw in delta_terms(kinked)}
        assert raw[new_v] is True  # splitting at the kink detaches a free loop


def test_delta_is_only_an_r2_class_function_not_a_full_invariant():
    # a kink on a split component rescues a term from the zero rule, so the
    # per-crossing split sum distinguishes diagrams of the same free knot;
    # the composition kdelta absorbs the difference (see decisions ledger)
    plain = code("b c c b")
    kinked = code("a a b c c b")
    assert delta(plain).terms == frozenset()
    assert terms_of(delta(kinked)) == [str(canon("a a | b b"))]
    assert kdelta(plain) == kdelta(kinked) == formal_sum(CTX_LINK)


# ---------------------------------------------------------------------------
# alex bracket


def test_alex_single_even_chord_gives_bare_circle():
    assert terms_of(alex_bracket(code("a a"))) == ["O"]


def test_alex_all_odd_is_single_reduced_term():
    assert terms_of(alex_bracket(code("a b a b"))) == ["O"]


def test_alex_term_count_bound():
    for n in range(1, 5):
        for can in enumerate_codes(n, 1):
            c = can.code()
            k = len(c.words and gaussian_parity(c).chords) - len(gaussian_parity(c).odd)
            assert len(alex_bracket(c).terms) <= 2 ** k


def test_alex_requires_one_component():
    with pytest.raises(PreconditionError):
        alex_bracket(code("a b | a b"))


# ---------------------------------------------------------------------------
# kauffman bracket


def test_kauffman_all_odd_single_term_collapses_here():
    # both crossings inter-component: single term, but the bigon collapse
    # leaves free loops, so the term is zero
    assert kauffman_bracket(code("a b | a b")).terms == frozenset()


def test_kauffman_two_even_chords_all_states_die():
    c = code("a a | b b")
    d = to_framed(c)
    states = []
    for ch_a, ch_b in itertools.product("AB", repeat=2):
        state = resolve(d, {"a": ch_a, "b": ch_b})
        states.append(reduce_r2(state)[1])
    assert states == [True] * 4
    assert kauffman_bracket(c).terms == frozenset()


def test_kauffman_one_even_chord_leaves_one_term():
    # splitting the intra-component chord one way detaches a bare circle
    # (dies); the other way leaves two circles crossed once
    exp = [r for r in word_smooth(code("a a b | b"), "a")]
    survivors = [canonicalize(r) for r in exp if r.free_loops == 0]
    assert terms_of(kauffman_bracket(code("a a b | b"))) == sorted(str(t) for t in survivors)
    assert len(survivors) == 1


def test_kauffman_requires_two_components():
    with pytest.raises(PreconditionError):
        kauffman_bracket(code("a a"))


# ---------------------------------------------------------------------------
# kdelta


def test_kdelta_trivial_cases():
    assert kdelta(code("O")).terms == frozenset()
    assert kdelta(code("a b a b")).terms == frozenset()
    assert kdelta(code("a b c a b c")).terms == frozenset()


def test_kdelta_is_kauffman_over_delta_terms():
    c = code("a b a c b c")
    total = formal_sum(CTX_LINK)
    for t in delta(c).terms:
        total ^= kauffman_bracket(t)
    assert kdelta(c) == total


# ---------------------------------------------------------------------------
# outputs satisfy the space invariants by construction


def test_all_outputs_pass_context_checks_on_random_diagrams():
    # the invariants build their sums unchecked; formal_sum checks every member
    rng = random.Random(5)
    knots, links = [], []
    for _ in range(25):
        n = rng.randint(0, 5)
        knots.append(random_diagram(n, 1, rng))
        if n >= 1:
            links.append(random_diagram(n, 2, rng))
    knots += [can.code() for n in range(5) for can in enumerate_codes(n, 1)]
    links += [can.code() for n in range(5) for can in enumerate_codes(n, 2)]
    sums = [f(c) for c in knots for f in (delta, alex_bracket, kdelta)]
    sums += [kauffman_bracket(c) for c in links]
    for s in sums:
        assert formal_sum(s.context, s.terms) == s
    assert sum(len(s.terms) for s in sums) > 100


def test_move_invariance_smoke():
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randint(0, 5)
        c = random_diagram(n, 1, rng)
        c2 = random_moves(c, rng.randint(1, 3), n + 2, rng)
        assert alex_bracket(c) == alex_bracket(c2)
        assert kdelta(c) == kdelta(c2)
    for _ in range(8):
        n = rng.randint(1, 5)
        c = random_diagram(n, 2, rng)
        c2 = random_moves(c, rng.randint(1, 3), n + 2, rng)
        assert kauffman_bracket(c) == kauffman_bracket(c2)


# ---------------------------------------------------------------------------
# the pruned state sums against every state built


def test_state_sums_match_the_every_state_oracle_exhaustive_small():
    knots = [c for n in range(0, 7) for c in enumerate_codes(n, 1)] + [load_fixture("k1")]
    for c in knots:
        assert alex_bracket(c).terms == naive_alex_bracket(c), str(c)
        assert kdelta(c).terms == naive_kdelta(c), str(c)
    links = [c for n in range(0, 6) for c in enumerate_codes(n, 2)]
    for c in links + [load_fixture("l1"), code("a a | O"), code("a b a b | O")]:
        assert kauffman_bracket(c).terms == naive_kauffman_bracket(c), str(c)


# ---------------------------------------------------------------------------
# the state-sum budget


def kinks(labels):
    """One kink per label: every chord is even under both parity rules."""
    return " ".join(f"{c} {c}" for c in labels)


KINKS_21 = kinks("abcdefghijklmnopqrstu")


def _no_states(*args):
    raise AssertionError("a state was built")


def test_state_sums_refuse_beyond_the_budget_before_any_state(monkeypatch):
    assert STATE_SUM_MAX_EVENS == 20
    monkeypatch.setattr(brackets, "_smoothings", _no_states)
    with pytest.raises(BudgetError, match="^21 even crossings; state sums stop at 20$"):
        alex_bracket(code(KINKS_21))
    with pytest.raises(BudgetError, match="^21 even crossings"):
        kauffman_bracket(code(KINKS_21 + " | O"))
    # delta splits this at x and at y into two 22-chord links whose 21 kinks
    # are all even under component parity
    with pytest.raises(BudgetError, match="^21 even crossings"):
        kdelta(code(f"x {kinks('abcdefghij')} y x y {kinks('klmnopqrstu')}"))


def test_state_sum_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(brackets, "STATE_SUM_MAX_EVENS", 2)
    assert terms_of(alex_bracket(code(kinks("ab")))) == ["O"]
    with pytest.raises(BudgetError, match="^3 even crossings; state sums stop at 2$"):
        alex_bracket(code(kinks("abc")))


# ---------------------------------------------------------------------------
# pruning: states ruled out by their free loops are never reduced


def _count_reductions(monkeypatch) -> list:
    calls = []

    def counting(*args):
        calls.append(args)
        return reduce_r2(*args)

    monkeypatch.setattr(brackets, "reduce_r2", counting)
    return calls


def test_alex_bracket_of_kinks_reduces_at_most_two_states(monkeypatch):
    calls = _count_reductions(monkeypatch)
    assert terms_of(alex_bracket(code(kinks("abcdefghijkl")))) == ["O"]
    assert len(calls) <= 2  # building every state would reduce all 4,096


def test_kauffman_bracket_with_a_free_loop_reduces_no_state(monkeypatch):
    calls = _count_reductions(monkeypatch)
    assert kauffman_bracket(code(kinks("abcdefghijkl") + " | O")).terms == frozenset()
    assert calls == []
