#!/usr/bin/env python3
"""Time ``realizable`` on seeded relabellings of hard and easy graphs.

Each case is a graph family; every one of its ``--repeat`` samples is a
fresh seeded relabelling (the vertices shuffled), so the time does not hang
on one lucky vertex order.  The cases:

- ``w5_local_complements``: the wheel W5 after 0-3 local complements at
  random vertices (unrealizable: circle graphs are closed under local
  complementation, and W5 is not one);
- ``w7`` and ``bw3``: the wheel W7 and W3 with its rim edges subdivided,
  two more of Bouchet's obstructions (unrealizable);
- ``w5_isolated_1``, ``w5_isolated_2``: W5 plus one or two isolated
  vertices;
- ``w5_false_twin_hub``, ``w5_false_twin_rim``, ``w5_true_twin_hub``,
  ``w5_true_twin_rim``, ``w5_pendant_hub``, ``w5_pendant_rim``: W5 plus one
  vertex with the hub's or a rim vertex's open neighbourhood, closed
  neighbourhood, or that vertex alone as neighbour;
- ``w5_two_twins``: W5 plus a false twin of one rim vertex and a true twin
  of another (8 vertices);
- ``word_4`` ... ``word_8``: interlacement graphs of random one-circle words
  with 4-8 chords (realizable).

Every W5 case is unrealizable.  A sample is the fastest of three calls on
one relabelling, with the canonical-form cache cleared before each call.
The run prints one JSON line: per case, the answer (``realizable``, the same
for every sample) and the median and maximum sample in ms.  It imports the
package from the checkout it lives in, so running it from two checkouts
compares them.

Usage: python scripts/bench_realizable.py [--seed S] [--repeat R]
"""

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from freeknot.analysis import random_diagram, realizable  # noqa: E402
from freeknot.diagrams import canonicalize  # noqa: E402
from freeknot.parity import InterlacementGraph, interlacement  # noqa: E402

HUB, RIM = 0, 1
#: calls per relabelling; a sample is the fastest, so a call that the
#: machine preempted does not count as the graph's cost
CALLS = 3


def wheel(rim: int) -> dict:
    """Vertex 0 joined to the cycle 1..rim, as a neighbour-set dict."""
    g = {0: set(range(1, rim + 1))}
    for i in range(1, rim + 1):
        g[i] = {0, i % rim + 1, (i - 2) % rim + 1}
    return g


def from_edges(edges) -> dict:
    g: dict = {}
    for a, b in edges:
        g.setdefault(a, set()).add(b)
        g.setdefault(b, set()).add(a)
    return g


def added(g: dict, nbrs) -> dict:
    """``g`` plus one new vertex joined to ``nbrs``."""
    g = {v: set(s) for v, s in g.items()}
    new = len(g)
    g[new] = set(nbrs)
    for u in nbrs:
        g[u].add(new)
    return g


def false_twin(g: dict, v: int) -> dict:
    return added(g, g[v])


def true_twin(g: dict, v: int) -> dict:
    return added(g, g[v] | {v})


def local_complement(g: dict, v: int) -> dict:
    """``g`` with the edges among ``v``'s neighbours complemented."""
    return {u: s ^ (g[v] - {u}) if u in g[v] else set(s) for u, s in g.items()}


def relabelled(rng: random.Random, g: dict) -> InterlacementGraph:
    names = list(range(len(g)))
    rng.shuffle(names)
    edges = frozenset(frozenset((names[a], names[b])) for a in g for b in g[a])
    return InterlacementGraph(tuple(range(len(g))), edges)


def w5_local_complements(rng: random.Random) -> dict:
    g = wheel(5)
    for _ in range(rng.randrange(4)):
        g = local_complement(g, rng.randrange(len(g)))
    return g


def word_graph(chords: int):
    def draw(rng: random.Random) -> dict:
        # random_diagram labels its chords 0..chords-1
        return interlacement(random_diagram(chords, 1, rng)).neighbor_sets()
    return draw


W5 = wheel(5)
CASES = {
    "w5_local_complements": w5_local_complements,
    "w7": lambda rng: wheel(7),
    "bw3": lambda rng: from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (4, 2), (2, 5), (5, 3), (3, 6), (6, 1)]),
    "w5_isolated_1": lambda rng: added(W5, ()),
    "w5_isolated_2": lambda rng: added(added(W5, ()), ()),
    "w5_false_twin_hub": lambda rng: false_twin(W5, HUB),
    "w5_false_twin_rim": lambda rng: false_twin(W5, RIM),
    "w5_true_twin_hub": lambda rng: true_twin(W5, HUB),
    "w5_true_twin_rim": lambda rng: true_twin(W5, RIM),
    "w5_pendant_hub": lambda rng: added(W5, {HUB}),
    "w5_pendant_rim": lambda rng: added(W5, {RIM}),
    "w5_two_twins": lambda rng: true_twin(false_twin(W5, RIM), RIM + 2),
    **{f"word_{n}": word_graph(n) for n in range(4, 9)},
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=30)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    cases = {}
    for name, draw in CASES.items():
        times, answers = [], set()
        for _ in range(args.repeat):
            g = relabelled(rng, draw(rng))
            best = float("inf")
            for _ in range(CALLS):
                canonicalize.cache_clear()
                start = time.perf_counter()
                w = realizable(g)
                best = min(best, time.perf_counter() - start)
            times.append(best)
            answers.add(w is not None)
        (answer,) = answers
        cases[name] = {"realizable": answer,
                       "median_ms": round(1e3 * statistics.median(times), 4),
                       "max_ms": round(1e3 * max(times), 4)}
    print(json.dumps({"seed": args.seed, "repeat": args.repeat, "cases": cases}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
