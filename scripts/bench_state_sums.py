#!/usr/bin/env python3
"""Time the three state sums on seeded random diagrams.

For each even-crossing count given, one seeded input per bracket is drawn
with ``random_diagram``: a one-circle diagram with that many Gaussian-even
chords for ``alex_bracket`` and ``kdelta`` (none of whose delta terms is over
the state-sum budget), and a two-circle diagram with that many
component-even chords for ``kauffman_bracket``.  Each bracket is timed over
all its inputs ``--repeat`` times, with the canonical-form cache cleared
before every call, and the run prints one JSON line with the median time
of each and the run's peak resident memory (``VmHWM`` from
``/proc/self/status``, or null where that file is missing).  The brackets
delete every kink and bigon of their input before they sum it, so the line
also gives, per bracket and input, the chords and the even chords left to
sum: for ``kdelta``, the chords left of the knot and the most even chords
left in any delta term it sums.  It imports the package from the checkout
it lives in, so running it from two checkouts compares them.

Usage: python scripts/bench_state_sums.py [--chords N] [--evens E ...]
                                          [--seed S] [--repeat R]
"""

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from freeknot.analysis import random_diagram  # noqa: E402
from freeknot.brackets import STATE_SUM_MAX_EVENS, alex_bracket, delta, kauffman_bracket, kdelta  # noqa: E402
from freeknot.diagrams import canonicalize, to_framed  # noqa: E402
from freeknot.moves import _untangle  # noqa: E402
from freeknot.parity import component_parity, gaussian_parity  # noqa: E402


def evens(code, parity) -> int:
    p = parity(code)
    return len(p.chords) - len(p.odd)


def left(code, parity) -> tuple[int, int]:
    """The chords and the even chords under ``parity`` that the brackets
    sum: those of ``code`` with every kink and bigon deleted."""
    d = _untangle(to_framed(code))
    return d.vertex_count, evens(d, parity)


def kdelta_left(code) -> tuple[int, int]:
    """The chords left of a knot, and the most even chords left in any of
    the delta terms that ``kdelta`` sums."""
    d = _untangle(to_framed(code))
    return d.vertex_count, max((left(t, component_parity)[1] for t in delta(d).terms), default=0)


def vmhwm_mb():
    """The process's peak resident memory in MB, or None without
    ``/proc/self/status``."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        return None
    return None


def within_budget(code) -> bool:
    return kdelta_left(code)[1] <= STATE_SUM_MAX_EVENS


def draw(rng: random.Random, chords: int, circles: int, parity, count: int, ok=lambda c: True):
    """A seeded random diagram with ``count`` even chords under ``parity``.
    A one-circle diagram has an even number of odd chords, as the degrees
    of a graph sum to an even number, so some counts never occur."""
    for _ in range(10_000):
        c = random_diagram(chords, circles, rng)
        if evens(c, parity) == count and ok(c):
            return c
    sys.exit(f"no {circles}-circle input with {chords} chords and {count} even ones in 10,000 draws")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--chords", type=int, default=22)
    ap.add_argument("--evens", type=int, nargs="+", default=[14, 16])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    knots = [draw(rng, args.chords, 1, gaussian_parity, e, within_budget) for e in args.evens]
    links = [draw(rng, args.chords, 2, component_parity, e) for e in args.evens]
    brackets = {"alex_bracket": (alex_bracket, knots, lambda c: left(c, gaussian_parity)),
                "kauffman_bracket": (kauffman_bracket, links, lambda c: left(c, component_parity)),
                "kdelta": (kdelta, knots, kdelta_left)}
    medians, lefts = {}, {}
    for name, (bracket, inputs, leaves) in brackets.items():
        chords, counts = zip(*map(leaves, inputs))
        lefts[name] = {"chords": chords, "evens": counts}
        times = []
        for _ in range(args.repeat):
            total = 0.0
            for c in inputs:
                canonicalize.cache_clear()
                start = time.perf_counter()
                bracket(c)
                total += time.perf_counter() - start
            times.append(total)
        medians[name] = round(statistics.median(times), 6)
    print(json.dumps({"chords": args.chords, "evens": args.evens, "seed": args.seed,
                      "repeat": args.repeat, "median_s": medians, "left": lefts,
                      "vmhwm_mb": vmhwm_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
