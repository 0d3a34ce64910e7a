"""Tests of the benchmark's own input generators.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import itertools
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import workloads  # noqa: E402
from freeknot import (  # noqa: E402
    GaussCode,
    apply_r1_decrease,
    apply_r2_decrease,
    canonical_of,
    canonicalize,
    find_r1,
    find_r2,
    to_framed,
)


def _diagram(seed: int) -> tuple[random.Random, list]:
    rng = random.Random(seed)
    n = 1 + seed % 5
    return rng, inputs.diagram(rng, 1 + seed % 2, n)


def _framed(words):
    return to_framed(GaussCode(tuple(tuple(w) for w in words)))


@pytest.mark.parametrize("seed", range(60))
def test_inserted_kink_is_found_by_find_r1(seed):
    rng, words = _diagram(seed)
    d = _framed(inputs.insert_kink(rng, words, "x"))
    sites = [m for m in find_r1(d) if m.vertices == ("x",)]
    assert sites
    assert canonical_of(apply_r1_decrease(d, sites[0])) == canonicalize(GaussCode(tuple(words)))


@pytest.mark.parametrize("seed", range(60))
def test_inserted_bigon_is_found_by_find_r2(seed):
    rng, words = _diagram(seed)
    d = _framed(inputs.insert_bigon(rng, words, "y", "z"))
    sites = [m for m in find_r2(d) if m.vertices == ("y", "z")]
    assert sites
    assert canonical_of(apply_r2_decrease(d, sites[0])) == canonicalize(GaussCode(tuple(words)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_always_gives_the_same_inputs(workload):
    def first(seed):
        return [(op.name, op.text) for op in itertools.islice(workloads.op_stream(workload, seed), 40)]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_diagram_with_evens_hits_its_target():
    rng = random.Random(3)
    for comps, n, evens in [(1, 12, 6), (2, 16, 10)]:
        words = inputs.diagram_with_evens(rng, comps, n, evens)
        assert len(words) == comps and sum(map(len, words)) == 2 * n
        assert inputs.even_chords(words) == evens


def test_isomorphism_check():
    rng = random.Random(1)
    g = inputs.word_graph(inputs.one_circle_word(rng, 6))
    assert inputs.isomorphic(g, inputs.relabel(rng, g))
    w5 = inputs.wheel5()
    assert inputs.isomorphic(w5, inputs.local_complement(w5, "h"))
    assert not inputs.isomorphic(w5, inputs.local_complement(w5, "r0"))
