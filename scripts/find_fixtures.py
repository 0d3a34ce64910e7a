#!/usr/bin/env python3
"""Regenerate the shipped minimality fixtures.

Scans the 40320 normal forms "x 1..8 x <permutation>" for a 9-chord
one-component diagram with all chords even, a unique chord interlacing all
others, and a well-behaved two-component split (8 crossings, all
inter-component, R2-irreducible, source-sink orientable).  Writes the first
hit and its split to src/freeknot/fixtures/{k1,l1}.gauss.

Usage: python scripts/find_fixtures.py [--all]
"""

import argparse
import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from freeknot.brackets import split_smoothing  # noqa: E402
from freeknot.diagrams import (  # noqa: E402
    GaussCode,
    canonicalize,
    component_count,
    from_framed,
    render_gauss_code,
    to_framed,
)
from freeknot.moves import find_r2  # noqa: E402
from freeknot.parity import (  # noqa: E402
    component_parity,
    gaussian_parity,
    interlacement,
    source_sink_orientable,
)

HEADER_K1 = """\
# Minimal 9-crossing one-component fixture.
# Constraint set: one component; 9 chords; every chord even (interlacement
# degree); exactly one chord interlaced with all 8 others; diagram
# R2-irreducible; the two-component smoothing at that chord is 8-vertex,
# R2-irreducible, fully inter-component, and source-sink orientable.
# Search space: the 8! = 40320 normal forms "x 1..8 x <permutation>"
# (every diagram meeting the constraints relabels into this family).
# Regenerate with scripts/find_fixtures.py.
"""

HEADER_L1 = """\
# Minimal 8-crossing two-component fixture: the split of k1.gauss at its
# unique fully-interlaced chord.  All crossings are inter-component, the
# diagram is R2-irreducible and source-sink orientable.
# Regenerate with scripts/find_fixtures.py.
"""


def search_minimal_fixtures(limit: int | None = 1) -> list[tuple[GaussCode, GaussCode]]:
    """Scan the 8! normal forms ``x 1..8 x <permutation>`` for one-component
    9-chord diagrams satisfying:

    * every chord Gaussian-even, diagram R2-irreducible,
    * exactly one chord interlaced with all eight others,
    * the two-component split at that chord 8-vertex, R2-irreducible,
      all crossings inter-component, and source-sink orientable.

    Returns (knot diagram, its split) pairs; the prefilter keeps only
    permutations whose same-order pair counts are odd per chord (evenness)
    and below seven (unique hub).  It is the reproducible source of the
    shipped ``k1``/``l1`` fixtures, and the acceptance tests rerun it."""
    out: list[tuple[GaussCode, GaussCode]] = []
    for pi in itertools.permutations(range(1, 9)):
        pos = {v: i for i, v in enumerate(pi)}
        ok = True
        for i in range(1, 9):
            deg = sum(1 for j in range(1, 9) if i != j and ((i < j) == (pos[i] < pos[j])))
            if deg % 2 == 0 or deg == 7:
                ok = False
                break
        if not ok:
            continue
        word = (0,) + tuple(range(1, 9)) + (0,) + pi
        code = GaussCode((word,))
        k1 = to_framed(code)
        if find_r2(k1):
            continue
        if gaussian_parity(code).odd:
            continue
        g = interlacement(code)
        if [v for v in g.vertices if g.degree(v) == 8] != [0]:
            continue
        l1 = split_smoothing(k1, 0)
        if l1.vertex_count != 8 or component_count(l1) != 2 or find_r2(l1):
            continue
        l1_code = from_framed(l1)
        if not component_parity(l1_code).all_odd():
            continue
        if not source_sink_orientable(l1):
            continue
        out.append((code, l1_code))
        if limit is not None and len(out) >= limit:
            break
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--all", action="store_true", help="report every hit instead of the first")
    args = ap.parse_args()

    hits = search_minimal_fixtures(limit=None if args.all else 1)
    if not hits:
        print("no diagram satisfies the constraint set", file=sys.stderr)
        return 1
    print(f"{len(hits)} hit(s)")
    for k1, l1 in hits:
        print("  knot:", render_gauss_code(k1), "| canonical:", canonicalize(k1))
        print("  link:", render_gauss_code(l1), "| canonical:", canonicalize(l1))

    k1, l1 = hits[0]
    fixdir = pathlib.Path(__file__).resolve().parents[1] / "src" / "freeknot" / "fixtures"
    fixdir.mkdir(parents=True, exist_ok=True)
    (fixdir / "k1.gauss").write_text(HEADER_K1 + render_gauss_code(k1) + "\n")
    (fixdir / "l1.gauss").write_text(HEADER_L1 + render_gauss_code(l1) + "\n")
    print(f"wrote {fixdir / 'k1.gauss'} and {fixdir / 'l1.gauss'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
