#!/usr/bin/env python3
"""Time the bounded move search on seeded scrambles and sweeps, cold and warm.

The cases:

- ``bfs/<k>c/n<n>``: ``bfs_equivalent(scramble, start, size, features)``,
  where ``start`` is ``random_diagram(n, k)`` and ``scramble`` is ``start``
  with 1-2 kinks or bigons added by ``random_moves`` (a move is drawn again
  until it adds vertices), ``size`` is the scramble's chord count and
  ``features`` the number added: the search must undo them within that
  depth, and meets its target partway through the class that reaches it;
- ``explore/<k>c/n<n>/d<d>``: ``explore_moves(start, n + 2, d)`` from
  ``random_diagram(n, k)``, a full sweep with no target.

Each of a case's ``--repeat`` samples draws a fresh seeded input.  A sample
is timed twice: cold, with the search memo and the canonical-form cache
cleared just before, and warm, at once again.  The run prints one JSON
line: per case, the median cold and warm time in ms, and, summed over the
cold calls, the classes expanded (a class's moves applied to the end, which
is what the memo stores; a bfs stops partway through the class that reaches
its target) and the ``canonicalize`` cache misses.  The counts repeat
exactly for a seed.  It imports the package from the checkout it lives
in, so running it from two checkouts compares them.

Usage: python scripts/bench_search.py [--seed S] [--repeat R]
"""

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from freeknot import analysis  # noqa: E402
from freeknot.analysis import bfs_equivalent, explore_moves, random_diagram, random_moves  # noqa: E402
from freeknot.diagrams import canonicalize  # noqa: E402

#: (components, chords) of the starts that bfs scrambles
BFS_CASES = [(1, 3), (1, 5), (2, 4), (2, 5)]
#: (components, chords, depth) of explore_moves(start, chords + 2, depth)
EXPLORE_CASES = [(1, 3, 3), (1, 4, 2), (2, 3, 2), (2, 4, 2)]


def scrambled(rng: random.Random, start, features: int):
    """``start`` with ``features`` kinks or bigons added, one move each."""
    code = start
    for _ in range(features):
        while True:
            grown = random_moves(code, 1, code.chord_count + 2, rng)
            if grown.chord_count > code.chord_count:
                code = grown
                break
    return code


def bfs_case(k: int, n: int):
    def draw(rng: random.Random):
        start = random_diagram(n, k, rng)
        features = rng.choice((1, 2))
        scramble = scrambled(rng, start, features)
        return lambda: bfs_equivalent(scramble, start, scramble.chord_count, features)
    return draw


def explore_case(k: int, n: int, depth: int):
    def draw(rng: random.Random):
        start = random_diagram(n, k, rng)
        return lambda: explore_moves(start, n + 2, depth)
    return draw


CASES = {
    **{f"bfs/{k}c/n{n}": bfs_case(k, n) for k, n in BFS_CASES},
    **{f"explore/{k}c/n{n}/d{d}": explore_case(k, n, d) for k, n, d in EXPLORE_CASES},
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    cases = {}
    for name, draw in CASES.items():
        cold, warm, expanded, misses = [], [], 0, 0
        for _ in range(args.repeat):
            search = draw(rng)
            analysis._memo.clear()
            canonicalize.cache_clear()
            start = time.perf_counter()
            report = search()
            cold.append(time.perf_counter() - start)
            expanded += len(analysis._memo)
            misses += canonicalize.cache_info().misses
            start = time.perf_counter()
            assert search() == report
            warm.append(time.perf_counter() - start)
            if report.reached is False:
                raise SystemExit(f"{name}: a scramble was not reached")
        cases[name] = {"cold_ms": round(1e3 * statistics.median(cold), 4),
                       "warm_ms": round(1e3 * statistics.median(warm), 4),
                       "expanded": expanded, "misses": misses}
    print(json.dumps({"seed": args.seed, "repeat": args.repeat, "cases": cases}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
