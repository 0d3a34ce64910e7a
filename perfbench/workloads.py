"""The three workloads: seeded op streams and their correctness gate.

An op is a named call into the program as it stands, either the CLI
(``freeknot.cli.main(argv)`` in-process with stdout captured) or a library
function.  Each workload is an endless stream of ops, built from the seed by
``inputs`` alone, in rounds: every round holds one op of each template entry
below, in a seeded order.  Fixing each entry's size (chords and even chords)
fixes what the op costs, so two seeds give streams of the same cost mix.

``check`` judges an op's output against answers that do not depend on the
seed; where only the seed fixes the answer, the output goes into the run's
digest instead (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import inputs

import freeknot
from freeknot import cli

#: certificate and bracket values of the shipped fixtures.  Every move
#: preserves them (the brackets are move invariants), so a scrambled fixture
#: must give exactly these.
K1_TERM = "a b c d e f g h | a d g b e h c f"
L1_TERM = K1_TERM
FIXTURE_ANSWERS = {
    ("k1", "bound"): {"bound": 9, "witness": "kdelta", "term": K1_TERM},
    ("k1", "abracket"): ["O"],
    ("k1", "kdelta"): [K1_TERM],
    ("l1", "bound"): {"bound": 8, "witness": "kauffman", "term": L1_TERM},
    ("l1", "kbracket"): [L1_TERM],
}

#: classes of one-circle diagrams with n chords, n = 0..6 (OEIS A007769)
ONE_CIRCLE_CLASSES = [1, 1, 2, 5, 17, 79, 554]

#: scrambled fixtures keep at most this many even chords, which bounds the
#: state sum of one op at 2 ** 11 states
FIXTURE_MAX_EVENS = 11


@dataclass
class Op:
    name: str                       # template entry, e.g. "abracket/1c/n16/e10"
    text: str                       # the input, as the digest records it
    run: Callable[[], str]          # calls the program; returns its output
    check: Callable[[str], str | None]  # None, or why the output is wrong


def cli_call(argv: list) -> str:
    """Exit code and stdout of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return f"{rc}\n{out.getvalue()}"


def _cli_op(name: str, argv: list, check) -> Op:
    return Op(name, " ".join(argv), lambda: cli_call(argv), check)


def _json_body(output: str):
    """The JSON a CLI op printed, after checking it exited 0."""
    rc, _, body = output.partition("\n")
    if rc != "0":
        raise ValueError(f"exit code {rc}")
    return json.loads(body)


def _checker(judge) -> Callable[[str], str | None]:
    """Wrap ``judge(payload) -> str | None`` so a bad exit code or
    unparsable output is a failure too."""
    def check(output: str) -> str | None:
        try:
            return judge(_json_body(output))
        except (ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return check


def _expect(answer):
    def judge(got):
        if isinstance(answer, dict):
            got = {k: got[k] for k in answer}
        return None if got == answer else f"expected {answer}, got {got}"
    return judge


def _sum_shape(got):
    ok = isinstance(got, list) and all(isinstance(t, str) for t in got) and len(set(got)) == len(got)
    return None if ok else f"not a list of distinct terms: {got!r}"


def _bound_shape(chords: int):
    def judge(got):
        if not 0 <= got["bound"] <= chords or got["tight"] != (got["bound"] == chords):
            return f"bound {got['bound']} / tight {got['tight']} impossible for {chords} chords"
        return None
    return judge


# ---------------------------------------------------------------------------
# statesum: the certificate path


STATESUM_TEMPLATE = [
    # (command, components, chords, even chords)
    ("abracket", 1, 12, 6),
    ("abracket", 1, 14, 8),
    ("abracket", 1, 16, 10),
    ("kbracket", 2, 12, 6),
    ("kbracket", 2, 14, 8),
    ("kbracket", 2, 16, 10),
    ("kdelta", 1, 10, 4),
    ("kdelta", 1, 12, 6),
    ("bound", 1, 10, 6),
    ("bound", 2, 16, 10),
    ("k1", 0, 0, 0),
    ("l1", 0, 0, 0),
]


def _fixture_op(rng: random.Random, fixtures: dict, name: str, command: str) -> Op:
    while True:
        words = inputs.scramble(rng, fixtures[name], rng.choice((1, 2)))
        if inputs.even_chords(words) <= FIXTURE_MAX_EVENS:
            break
    argv = [command, inputs.render(words), "--format", "json"]
    return _cli_op(f"{command}/{name}-scrambled", argv,
                   _checker(_expect(FIXTURE_ANSWERS[(name, command)])))


def statesum_round(rng: random.Random, fixtures: dict, round_no: int) -> list:
    ops = []
    for command, comps, n, evens in STATESUM_TEMPLATE:
        if command == "k1":
            ops.append(_fixture_op(rng, fixtures, "k1", ("bound", "abracket", "kdelta")[round_no % 3]))
            continue
        if command == "l1":
            ops.append(_fixture_op(rng, fixtures, "l1", ("bound", "kbracket")[round_no % 2]))
            continue
        words = inputs.diagram_with_evens(rng, comps, n, evens)
        argv = [command, inputs.render(words), "--format", "json"]
        judge = _bound_shape(n) if command == "bound" else _sum_shape
        ops.append(_cli_op(f"{command}/{comps}c/n{n}/e{evens}", argv, _checker(judge)))
    return ops


# ---------------------------------------------------------------------------
# scan: exhaustive raw scans


ENUMERATE_ARGS = [(n, 1) for n in range(7)] + [(n, 2) for n in range(6)]
#: per round: two enumerations, realizable on six word graphs and on two
#: locally complemented wheels.  The enumerations (cached after their first
#: call) and the small word graphs cost a few ms, mostly CLI start-up, and
#: are the cheap 70% that hold the median; the wheels, full scans, are the
#: top 20% that hold p90.
SCAN_WORD_GRAPH_SIZES = (4, 4, 4, 5, 5, 6)
SCAN_WHEELS = 2


def _enumerate_check(n: int, k: int):
    def judge(got):
        codes = got["codes"]
        if len(set(codes)) != len(codes):
            return "repeated class"
        if k == 1 and len(codes) != ONE_CIRCLE_CLASSES[n]:
            return f"{len(codes)} classes, expected {ONE_CIRCLE_CLASSES[n]}"
        for c in codes:
            if c.count("|") != k - 1:
                return f"class {c!r} does not have {k} components"
        return None
    return judge


def _realizable_check(graph: dict):
    def judge(got):
        if not got["realizable"]:
            return "graph of a one-circle word reported unrealizable"
        word = tuple(got["witness"].split())
        if not inputs.isomorphic(inputs.word_graph(word), graph):
            return f"witness {got['witness']!r} has another interlacement graph"
        return None
    return judge


def _unrealizable(got):
    return None if got["realizable"] is False and got["witness"] is None else f"W5 class realized: {got}"


def scan_round(rng: random.Random, round_no: int) -> list:
    ops = []
    for i in range(2):
        n, k = ENUMERATE_ARGS[(2 * round_no + i) % len(ENUMERATE_ARGS)]
        ops.append(_cli_op(f"enumerate/{n}/{k}", ["enumerate", str(n), str(k), "--format", "json"],
                           _checker(_enumerate_check(n, k))))
    for n in SCAN_WORD_GRAPH_SIZES:
        g = inputs.relabel(rng, inputs.word_graph(inputs.one_circle_word(rng, n)))
        ops.append(_cli_op(f"realizable/word{n}", ["realizable", inputs.adjacency_text(g), "--format", "json"],
                           _checker(_realizable_check(g))))
    for _ in range(SCAN_WHEELS):
        g = inputs.wheel5()
        for _ in range(rng.randrange(4)):
            g = inputs.local_complement(g, rng.choice(sorted(g)))
        g = inputs.relabel(rng, g)
        ops.append(_cli_op("realizable/w5", ["realizable", inputs.adjacency_text(g), "--format", "json"],
                           _checker(_unrealizable)))
    return ops


# ---------------------------------------------------------------------------
# search: the bounded move graph


#: (components, chords, depth) of explore_moves(start, chords + 2, depth)
EXPLORE_TEMPLATE = [(1, 3, 3), (1, 4, 2), (1, 4, 3), (1, 5, 2), (2, 3, 2), (2, 3, 3), (2, 4, 2), (2, 5, 2)]
#: (components, chords) of the starts that bfs scrambles
BFS_TEMPLATE = [(1, 3), (1, 5), (2, 4), (2, 5)]


def _explore_op(name: str, text: str, max_vertices: int, depth: int) -> Op:
    chords = sum(1 for tok in text.split() if tok != "|") // 2

    def run() -> str:
        r = freeknot.explore_moves(freeknot.parse_gauss_code(text), max_vertices, depth)
        return f"visited={r.visited} min_vertices={r.min_vertices} depth={r.depth_reached} reached={r.reached}"

    def check(output: str) -> str | None:
        f = dict(kv.split("=") for kv in output.split())
        ok = (f["reached"] == "None" and int(f["visited"]) >= 1 and int(f["depth"]) <= depth
              and int(f["min_vertices"]) <= chords)
        return None if ok else f"impossible report {output!r}"

    return Op(name, f"{text} / {max_vertices} / {depth}", run, check)


def _reached(got):
    return None if got["reached"] is True else "scramble not reached"


def search_round(rng: random.Random) -> list:
    ops = []
    for comps, n, depth in EXPLORE_TEMPLATE:
        text = inputs.render(inputs.diagram(rng, comps, n))
        ops.append(_explore_op(f"explore/{comps}c/n{n}/d{depth}", text, n + 2, depth))
    for comps, n in BFS_TEMPLATE:
        start = inputs.diagram(rng, comps, n)
        features = rng.choice((1, 2))
        scrambled = inputs.scramble(rng, start, features)
        chords = sum(len(w) for w in scrambled) // 2
        argv = ["bfs", inputs.render(scrambled), inputs.render(start),
                "--max-vertices", str(chords), "--max-depth", str(features), "--format", "json"]
        ops.append(_cli_op(f"bfs/{comps}c/n{n}", argv, _checker(_reached)))
    return ops


# ---------------------------------------------------------------------------


WORKLOADS = ("statesum", "scan", "search")


def op_stream(workload: str, seed: int):
    """Endless seeded op stream of one workload, one round at a time."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    fixtures = {name: [tuple(w) for w in freeknot.load_fixture(name).words] for name in ("k1", "l1")}
    round_no = 0
    while True:
        if workload == "statesum":
            ops = statesum_round(rng, fixtures, round_no)
        elif workload == "scan":
            ops = scan_round(rng, round_no)
        else:
            ops = search_round(rng)
        rng.shuffle(ops)
        yield from ops
        round_no += 1
