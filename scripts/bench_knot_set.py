#!/usr/bin/env python3
"""Time ``alex_bracket`` on a seeded set of large knots.

The set is the first ``--count`` draws of ``random_diagram(--chords, 1)``
from one ``random.Random(--seed)`` whose kink- and bigon-free form, the
diagram the bracket sums, has between ``--evens LO HI`` Gaussian-even
chords.  Each knot is summed once, with the canonical-form cache cleared
before the call.  The run prints one JSON line: the total and the worst
time, the process's peak resident memory (``VmHWM`` from
``/proc/self/status``, or null where that file is missing), the even
chords left per knot, and a SHA-256 digest of the outputs, which must be
equal across checkouts.  It imports the package from the checkout it lives
in, so running it from two checkouts compares them.

Usage: python scripts/bench_knot_set.py [--chords N] [--evens LO HI]
                                        [--count C] [--seed S]
"""

import argparse
import hashlib
import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from freeknot.analysis import random_diagram  # noqa: E402
from freeknot.brackets import alex_bracket  # noqa: E402
from freeknot.diagrams import canonicalize, to_framed  # noqa: E402
from freeknot.moves import _untangle  # noqa: E402
from freeknot.parity import gaussian_parity  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_state_sums import evens, vmhwm_mb  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--chords", type=int, default=26)
    ap.add_argument("--evens", type=int, nargs=2, default=[17, 20], metavar=("LO", "HI"))
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    knots, left = [], []
    for _ in range(100_000):
        c = random_diagram(args.chords, 1, rng)
        e = evens(_untangle(to_framed(c)), gaussian_parity)
        if args.evens[0] <= e <= args.evens[1]:
            knots.append(c)
            left.append(e)
            if len(knots) == args.count:
                break
    else:
        sys.exit(f"fewer than {args.count} knots with {args.evens} even chords left in 100,000 draws")
    digest = hashlib.sha256()
    times = []
    for c in knots:
        canonicalize.cache_clear()
        start = time.perf_counter()
        out = alex_bracket(c)
        times.append(time.perf_counter() - start)
        digest.update(" ; ".join(map(str, out.sorted_terms())).encode() + b"\n")
    print(json.dumps({"chords": args.chords, "evens": args.evens, "count": args.count,
                      "seed": args.seed, "total_s": round(sum(times), 6),
                      "worst_s": round(max(times), 6), "vmhwm_mb": vmhwm_mb(),
                      "left": left, "digest": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
