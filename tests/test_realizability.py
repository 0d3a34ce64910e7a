"""Realizability of abstract graphs, checked against the class-table oracle
and, for every witness, against networkx's isomorphism test."""

import random
from collections import Counter

import pytest

from freeknot.analysis import intersection_graph, random_diagram, realizable
from freeknot.parity import InterlacementGraph

from oracles import class_table_realizable

nx = pytest.importorskip("networkx")


def as_graph(h) -> InterlacementGraph:
    return InterlacementGraph(tuple(sorted(h.nodes)), frozenset(frozenset(e) for e in h.edges))


def as_nx(g: InterlacementGraph):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(tuple(e) for e in g.edges)
    return h


def assert_witness(w, h):
    assert w is not None
    assert nx.is_isomorphic(as_nx(intersection_graph(w)), h), (str(w), sorted(h.edges))


def relabelled(h, rng: random.Random):
    names = list(h.nodes)
    rng.shuffle(names)
    return nx.relabel_nodes(h, dict(zip(h.nodes, names)))


def wheel(rim: int):
    return nx.wheel_graph(rim + 1)  # hub 0 joined to a cycle of ``rim`` vertices


def test_realizable_matches_class_table_on_small_atlas():
    atlas = nx.graph_atlas_g()  # every graph with at most 7 vertices
    assert len(atlas) == 1253
    unrealizable = []
    for h in atlas:
        w = realizable(as_graph(h))
        assert (w is not None) == class_table_realizable(h), sorted(h.edges)
        if w is None:
            unrealizable.append(h)
        else:
            assert_witness(w, h)
    # at 6 vertices, the wheel W5 and one other class of its local complements
    assert Counter(h.number_of_nodes() for h in unrealizable) == {6: 2, 7: 66}
    assert any(nx.is_isomorphic(h, wheel(5)) for h in unrealizable)


def test_bouchet_obstructions_and_padded_wheels_unrealizable():
    rng = random.Random(20261018)
    # BW3: the wheel W3 with its three rim edges subdivided
    bw3 = nx.Graph([(0, 1), (0, 2), (0, 3), (1, 4), (4, 2), (2, 5), (5, 3), (3, 6), (6, 1)])
    w5_plus = [nx.disjoint_union(wheel(5), nx.empty_graph(k)) for k in (1, 2)]
    # W5 plus a false twin, a true twin or a pendant of the hub 0 or the rim
    # vertex 1, and plus a false twin of 1 and a true twin of 3
    for v in (0, 1):
        w5 = wheel(5)
        w5_plus.append(nx.Graph(list(w5.edges) + [(6, u) for u in w5[v]]))
        w5_plus.append(nx.Graph(list(w5.edges) + [(6, u) for u in w5[v]] + [(6, v)]))
        w5_plus.append(nx.Graph(list(w5.edges) + [(6, v)]))
    w5_plus.append(nx.Graph(list(wheel(5).edges) + [(6, 0), (6, 2), (6, 5)]
                            + [(7, 0), (7, 2), (7, 4), (7, 3)]))
    for h in [bw3, wheel(7)] + w5_plus:
        for _ in range(3):
            assert realizable(as_graph(relabelled(h, rng))) is None


@pytest.mark.parametrize("chords", [7, 8])
def test_word_graphs_of_random_words_realizable(chords):
    rng = random.Random(chords)
    for _ in range(25):
        word = random_diagram(chords, 1, rng)
        h = relabelled(as_nx(intersection_graph(word)), rng)
        assert_witness(realizable(as_graph(h)), h)
    # word graphs of 5 or 6 chords padded with 1 or 2 isolated vertices, and
    # the graph with no edges
    for k in (1, 2):
        for _ in range(10):
            h = as_nx(intersection_graph(random_diagram(chords - 2, 1, rng)))
            h.add_nodes_from(range(chords - 2, chords - 2 + k))
            h = relabelled(h, rng)
            assert_witness(realizable(as_graph(h)), h)
    h = nx.empty_graph(chords)
    assert_witness(realizable(as_graph(h)), h)
