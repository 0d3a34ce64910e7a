"""Seeded inputs for the benchmark, built with stdlib ``random`` only.

Nothing here calls into ``freeknot``: a workload's inputs depend on the seed
and on this file alone, so a change to the library's own generators
(``random_diagram``, ``random_moves``) cannot change what is measured.

Words are tuples of string labels; a diagram is a list of words (one per
circle component).  Graphs are dicts mapping a vertex name to the set of
its neighbours.
"""

from __future__ import annotations

import itertools
import random


def one_circle_word(rng: random.Random, n: int) -> tuple:
    """A uniform random double-occurrence word with ``n`` chords."""
    slots = [f"c{i}" for i in range(n) for _ in range(2)]
    rng.shuffle(slots)
    return tuple(slots)


def two_circle_words(rng: random.Random, n: int) -> list:
    """A random double-occurrence word with ``n`` chords cut into two
    non-empty circles."""
    w = one_circle_word(rng, n)
    cut = rng.randrange(1, 2 * n)
    return [w[:cut], w[cut:]]


def diagram(rng: random.Random, components: int, n: int) -> list:
    """A random one- or two-circle diagram with ``n`` chords."""
    return [one_circle_word(rng, n)] if components == 1 else two_circle_words(rng, n)


def interlaced_pairs(words) -> set:
    """Chord pairs whose endpoints alternate around one circle."""
    pos: dict = {}
    for wi, w in enumerate(words):
        for i, lab in enumerate(w):
            pos.setdefault(lab, []).append((wi, i))
    out = set()
    for x, y in itertools.combinations(sorted(pos), 2):
        (wx, x1), (wx2, x2) = pos[x]
        (wy, y1), (wy2, y2) = pos[y]
        if not (wx == wx2 == wy == wy2):
            continue
        inside = sum(1 for j in (y1, y2) if x1 < j < x2)
        if inside == 1:
            out.add((x, y))
    return out


def even_chords(words) -> int:
    """Chords the library's bracket smooths: for one circle, chords of even
    interlacement degree (Gaussian parity); for two circles, chords with
    both ends on one circle (component parity)."""
    labels = {lab for w in words for lab in w}
    if len(words) == 1:
        degree = dict.fromkeys(labels, 0)
        for x, y in interlaced_pairs(words):
            degree[x] += 1
            degree[y] += 1
        return sum(1 for d in degree.values() if d % 2 == 0)
    home = [{lab for lab in w} for w in words]
    return sum(1 for lab in labels if sum(lab in h for h in home) == 1)


def diagram_with_evens(rng: random.Random, components: int, n: int, evens: int) -> list:
    """A random ``components``-circle diagram with ``n`` chords of which
    exactly ``evens`` are even, by rejection; the state-sum cost of the
    brackets grows as ``2 ** evens``, so fixing it fixes the op's size."""
    while True:
        words = diagram(rng, components, n)
        if even_chords(words) == evens:
            return words


def insert_kink(rng: random.Random, words: list, label: str) -> list:
    """Insert ``label label`` into a random gap of a random circle."""
    words = list(words)
    wi = rng.randrange(len(words))
    w = words[wi]
    g = rng.randrange(len(w))
    words[wi] = w[:g] + (label, label) + w[g:]
    return words


def insert_bigon(rng: random.Random, words: list, y: str, z: str) -> list:
    """Insert ``y z`` into one gap and ``y z`` or ``z y`` into another gap,
    on the same circle or on another one.  Two gaps of one circle are
    distinct, so a letter of the old word separates the pairs both ways
    round.  Every circle of ``words`` is non-empty."""
    words = list(words)
    w1, w2 = rng.randrange(len(words)), rng.randrange(len(words))
    if w1 == w2 and len(words[w1]) < 2:
        w2 = (w1 + 1) % len(words)   # a one-letter circle has one gap
    second = (y, z) if rng.random() < 0.5 else (z, y)
    if w1 == w2:
        w = words[w1]
        g1, g2 = sorted(rng.sample(range(len(w)), 2))
        words[w1] = w[:g1] + (y, z) + w[g1:g2] + second + w[g2:]
    else:
        a, b = words[w1], words[w2]
        g1, g2 = rng.randrange(len(a)), rng.randrange(len(b))
        words[w1] = a[:g1] + (y, z) + a[g1:]
        words[w2] = b[:g2] + second + b[g2:]
    return words


def scramble(rng: random.Random, words: list, count: int) -> list:
    """Insert ``count`` features, each a kink or a bigon; labels ``x0``,
    ``x1``, ... are new to the diagram."""
    fresh = (f"x{i}" for i in itertools.count())
    for _ in range(count):
        if rng.random() < 0.5:
            words = insert_kink(rng, words, next(fresh))
        else:
            words = insert_bigon(rng, words, next(fresh), next(fresh))
    return words


def render(words) -> str:
    """Gauss-code text of a diagram, the grammar the CLI parses."""
    return " | ".join(" ".join(w) for w in words)


def word_graph(word) -> dict:
    """Interlacement graph of a one-circle word."""
    g = {lab: set() for lab in word}
    for x, y in interlaced_pairs([word]):
        g[x].add(y)
        g[y].add(x)
    return g


def wheel5() -> dict:
    """W5: a hub joined to every vertex of a 5-cycle; not a circle graph."""
    g = {"h": {f"r{i}" for i in range(5)}}
    for i in range(5):
        g[f"r{i}"] = {"h", f"r{(i + 1) % 5}", f"r{(i - 1) % 5}"}
    return g


def local_complement(g: dict, v) -> dict:
    """Complement the edges among the neighbours of ``v``."""
    out = {u: set(nb) for u, nb in g.items()}
    for a, b in itertools.combinations(sorted(g[v]), 2):
        if b in out[a]:
            out[a].discard(b)
            out[b].discard(a)
        else:
            out[a].add(b)
            out[b].add(a)
    return out


def relabel(rng: random.Random, g: dict) -> dict:
    """The same graph on shuffled vertex names ``v0``, ``v1``, ..."""
    names = [f"v{i}" for i in range(len(g))]
    rng.shuffle(names)
    m = dict(zip(sorted(g), names))
    return {m[u]: {m[x] for x in nb} for u, nb in g.items()}


def adjacency_text(g: dict) -> str:
    """The ``u: v w; ...`` grammar of ``freeknot realizable``."""
    return "; ".join(f"{u}: " + " ".join(sorted(g[u])) for u in sorted(g))


def isomorphic(g1: dict, g2: dict) -> bool:
    """Brute-force isomorphism over degree-preserving bijections."""
    a, b = sorted(g1), sorted(g2)
    if sorted(len(g1[u]) for u in a) != sorted(len(g2[u]) for u in b):
        return False
    edges1 = [(u, x) for u in a for x in g1[u] if u < x]
    for perm in itertools.permutations(b):
        m = dict(zip(a, perm))
        if all(len(g1[u]) == len(g2[m[u]]) for u in a) and \
                all(m[x] in g2[m[u]] for u, x in edges1):
            return True
    return False
