import json
import pathlib

import jsonschema
import pytest

from freeknot import analysis
from freeknot.cli import main

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "schemas" / "output.schema.json").read_text()
)


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return status, payload


# ---------------------------------------------------------------------------
# the grammar examples


def test_components_example(capsys):
    status, out, _ = run(capsys, "components", "a b | a b")
    assert status == 0 and out == "2\n"


def test_delta_json_example(capsys):
    # every splitting of this word dies by the free-loop rule (see ledger)
    status, payload = run_json(capsys, "delta", "a b c a b c")
    assert status == 0 and payload == []


def test_reduce_example(capsys):
    status, out, _ = run(capsys, "reduce", "a b a b")
    assert status == 0
    assert out.splitlines() == ["O", "saw_free_loop: true"]


# ---------------------------------------------------------------------------
# plumbing


def test_parse_text_and_json(capsys):
    status, out, _ = run(capsys, "parse", "O | a a")
    assert status == 0
    assert out.splitlines()[0] == "O | a a"
    status, payload = run_json(capsys, "parse", "O | a a")
    assert payload["components"] == 2 and payload["chords"] == 1 and payload["free_loops"] == 1


def test_canon_is_a_fixed_point(capsys):
    _, out1, _ = run(capsys, "canon", "b a b a")
    _, out2, _ = run(capsys, "canon", out1.strip())
    assert out1 == out2 == "a b a b\n"


def test_file_input(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("a b | a b\n")
    status, out, _ = run(capsys, "components", "--file", str(f))
    assert status == 0 and out == "2\n"


def test_parity_output(capsys):
    status, out, _ = run(capsys, "parity", "a b a c b c", "--rule", "gaussian")
    assert status == 0
    assert out.splitlines() == ["a: odd", "b: even", "c: odd"]
    status, payload = run_json(capsys, "parity", "a b | a b", "--rule", "component")
    assert payload["parities"] == {"a": "odd", "b": "odd"}


def test_orientable_output(capsys):
    assert run(capsys, "orientable", "a b b a")[1] == "true\n"
    assert run(capsys, "orientable", "a b a b")[1] == "false\n"


def test_interlacement_formats(capsys):
    status, out, _ = run(capsys, "interlacement", "a b a c b c")
    assert out.splitlines() == ["vertices: a b c", "a b", "b c"]
    status, out, _ = run(capsys, "interlacement", "a b a b", "--format", "dot")
    assert out.splitlines()[0] == "graph interlacement {"
    assert '  "a" -- "b";' in out
    run_json(capsys, "interlacement", "a b a c b c")


def test_bracket_text_empty_sum_prints_zero(capsys):
    status, out, _ = run(capsys, "kbracket", "a a | b b")
    assert status == 0 and out == "0\n"
    status, out, _ = run(capsys, "kbracket", "a a b | b")
    assert status == 0 and out == "a | a\n"


def test_bound_output(capsys):
    status, payload = run_json(capsys, "bound", "a b a b")
    assert payload["bound"] == 0 and payload["tight"] is False
    status, out, _ = run(capsys, "bound", "a b | a b")
    assert status == 0 and "bound: 0" in out


def test_realizable_adjacency(capsys, tmp_path):
    status, out, _ = run(capsys, "realizable", "x: y")
    assert status == 0 and out == "a b a b\n"
    f = tmp_path / "graph.txt"
    f.write_text("hub: r0 r1 r2 r3 r4\nr0: r1 r4\nr1: r2\nr2: r3\nr3: r4\n")
    status, payload = run_json(capsys, "realizable", "--file", str(f))
    assert status == 0 and payload == {"command": "realizable", "realizable": False, "witness": None}


def test_realizable_rejects_vertex_name_with_spaces(capsys):
    status, out, err = run(capsys, "realizable", "a b: c")
    assert status == 1 and out == "" and "'a b'" in err


def test_bfs_output_and_exit_codes(capsys):
    status, out, _ = run(capsys, "bfs", "a b a b", "O", "--max-vertices", "4", "--max-depth", "2")
    assert status == 0 and "reached: true" in out
    status, out, _ = run(capsys, "bfs", "a a", "a b a b c c", "--max-vertices", "2", "--max-depth", "1")
    assert status == 3 and "reached: false" in out
    run_json(capsys, "bfs", "a b a b", "O", "--max-vertices", "4", "--max-depth", "2")


@pytest.mark.parametrize("depth", ["-1", "-2"])
def test_bfs_negative_depth_is_a_precondition_error(capsys, depth):
    status, out, err = run(capsys, "bfs", "a b a b", "O", "--max-vertices", "4", "--max-depth", depth)
    assert status == 2 and out == ""
    assert err == f"error: max_depth must be non-negative, got {depth}\n"


def test_random_negative_moves_is_a_precondition_error(capsys):
    status, out, err = run(capsys, "random", "3", "1", "--seed", "1", "--moves", "-2")
    assert status == 2 and out == ""
    assert err == "error: count must be non-negative, got -2\n"


def test_enumerate_output(capsys):
    status, out, _ = run(capsys, "enumerate", "2", "1")
    assert status == 0 and out.splitlines() == ["a a b b", "a b a b"]
    run_json(capsys, "enumerate", "2", "1")


def test_random_requires_seed_and_is_deterministic(capsys):
    status, _, _ = run(capsys, "random", "3", "1")
    assert status == 1
    s1 = run(capsys, "random", "3", "1", "--seed", "9")
    s2 = run(capsys, "random", "3", "1", "--seed", "9")
    assert s1 == s2 and s1[0] == 0
    s3 = run(capsys, "random", "3", "1", "--seed", "9", "--moves", "4", "--max-vertices", "6")
    assert s3[0] == 0
    run_json(capsys, "random", "3", "1", "--seed", "9")


# ---------------------------------------------------------------------------
# pinned outputs: exact stdout and exit status of every subcommand

K1 = "0 1 2 3 4 5 6 7 8 0 3 8 5 2 7 4 1 6"
L1 = "1 2 3 4 5 6 7 8 | 1 6 3 8 5 2 7 4"

PINNED = [
    (("parse", "O | a a"), "text", 0, "O | a a\ncomponents: 2\nchords: 1\nfree_loops: 1\n"),
    (("parse", "O | a a"), "json", 0, '{"chords": 1, "code": "O | a a", "command": "parse", "components": 2, "free_loops": 1}\n'),
    (("canon", "b a b a"), "text", 0, "a b a b\n"),
    (("canon", "b a b a"), "json", 0, '{"code": "a b a b", "command": "canon"}\n'),
    (("components", "a b | a b"), "text", 0, "2\n"),
    (("components", "a b | a b"), "json", 0, '{"command": "components", "count": 2}\n'),
    (("reduce", "a b a b"), "text", 0, "O\nsaw_free_loop: true\n"),
    (("reduce", "a b a b"), "json", 0, '{"code": "O", "command": "reduce", "saw_free_loop": true}\n'),
    (("parity", "a b a c b c", "--rule", "gaussian"), "text", 0, "a: odd\nb: even\nc: odd\n"),
    (("parity", "a b a c b c", "--rule", "gaussian"), "json", 0, '{"command": "parity", "parities": {"a": "odd", "b": "even", "c": "odd"}, "rule": "gaussian"}\n'),
    (("parity", "a b | a b", "--rule", "component"), "text", 0, "a: odd\nb: odd\n"),
    (("parity", "a b | a b", "--rule", "component"), "json", 0, '{"command": "parity", "parities": {"a": "odd", "b": "odd"}, "rule": "component"}\n'),
    (("parity", "O", "--rule", "gaussian"), "text", 0, ""),
    (("parity", "O", "--rule", "gaussian"), "json", 0, '{"command": "parity", "parities": {}, "rule": "gaussian"}\n'),
    (("orientable", "a b b a"), "text", 0, "true\n"),
    (("orientable", "a b b a"), "json", 0, '{"command": "orientable", "orientable": true}\n'),
    (("interlacement", "a b a c b c"), "text", 0, "vertices: a b c\na b\nb c\n"),
    (("interlacement", "a b a c b c"), "json", 0, '{"command": "interlacement", "edges": [["a", "b"], ["b", "c"]], "vertices": ["a", "b", "c"]}\n'),
    (("interlacement", "a b a c b c"), "dot", 0, 'graph interlacement {\n  "a";\n  "b";\n  "c";\n  "a" -- "b";\n  "b" -- "c";\n}\n'),
    (("delta", K1), "text", 0, "a b c d e f g h | a d g b e h c f\n"),
    (("delta", K1), "json", 0, '["a b c d e f g h | a d g b e h c f"]\n'),
    (("delta", "a b | a b"), "text", 2, ""),
    (("delta", "a b | a b"), "json", 2, ""),
    (("abracket", K1), "text", 0, "O\n"),
    (("abracket", K1), "json", 0, '["O"]\n'),
    (("kbracket", L1), "text", 0, "a b c d e f g h | a d g b e h c f\n"),
    (("kbracket", L1), "json", 0, '["a b c d e f g h | a d g b e h c f"]\n'),
    (("kbracket", "a a | b b"), "text", 0, "0\n"),
    (("kbracket", "a a | b b"), "json", 0, "[]\n"),
    (("kdelta", K1), "text", 0, "a b c d e f g h | a d g b e h c f\n"),
    (("kdelta", K1), "json", 0, '["a b c d e f g h | a d g b e h c f"]\n'),
    (("bound", K1), "text", 0, "diagram: a b c a d e f g b h i c e i g d h f\nbound: 9\ntight: true\nwitness: kdelta\nterm: a b c d e f g h | a d g b e h c f\n"),
    (("bound", K1), "json", 0, '{"bound": 9, "command": "bound", "diagram": "a b c a d e f g b h i c e i g d h f", "term": "a b c d e f g h | a d g b e h c f", "tight": true, "witness": "kdelta"}\n'),
    (("bound", L1), "text", 0, "diagram: a b c d e f g h | a d g b e h c f\nbound: 8\ntight: true\nwitness: kauffman\nterm: a b c d e f g h | a d g b e h c f\n"),
    (("bound", L1), "json", 0, '{"bound": 8, "command": "bound", "diagram": "a b c d e f g h | a d g b e h c f", "term": "a b c d e f g h | a d g b e h c f", "tight": true, "witness": "kauffman"}\n'),
    (("bound", "a a | b b"), "text", 0, "diagram: a a | b b\nbound: 0\ntight: false\nwitness: kauffman\nterm: -\n"),
    (("bound", "a a | b b"), "json", 0, '{"bound": 0, "command": "bound", "diagram": "a a | b b", "term": null, "tight": false, "witness": "kauffman"}\n'),
    (("bound", "O | O | O"), "text", 2, ""),
    (("bound", "O | O | O"), "json", 2, ""),
    (("realizable", "x: y"), "text", 0, "a b a b\n"),
    (("realizable", "x: y"), "json", 0, '{"command": "realizable", "realizable": true, "witness": "a b a b"}\n'),
    (("bfs", "a b a b", "O", "--max-vertices", "4", "--max-depth", "2"), "text", 0, "reached: true\nvisited: 2\nmin_vertices: 0\ndepth: 1\npath: r2-@(0, 1)\n"),
    (("bfs", "a b a b", "O", "--max-vertices", "4", "--max-depth", "2"), "json", 0, '{"command": "bfs", "depth": 1, "min_vertices": 0, "path": ["r2-@(0, 1)"], "reached": true, "visited": 2}\n'),
    (("bfs", "a a", "a b a b c c", "--max-vertices", "2", "--max-depth", "1"), "text", 3, "reached: false\nvisited: 3\nmin_vertices: 0\ndepth: 1\n"),
    (("bfs", "a a", "a b a b c c", "--max-vertices", "2", "--max-depth", "1"), "json", 3, '{"command": "bfs", "depth": 1, "min_vertices": 0, "path": null, "reached": false, "visited": 3}\n'),
    (("enumerate", "3", "1"), "text", 0, "a a b b c c\na a b c b c\na a b c c b\na b a c b c\na b c a b c\n"),
    (("enumerate", "3", "1"), "json", 0, '{"codes": ["a a b b c c", "a a b c b c", "a a b c c b", "a b a c b c", "a b c a b c"], "command": "enumerate"}\n'),
    (("random", "5", "1", "--seed", "7", "--moves", "3", "--max-vertices", "8"), "text", 0, "0 2 1 7 7 3 1 5 6 4 6 5 0 4 3 2\n"),
    (("random", "5", "1", "--seed", "7", "--moves", "3", "--max-vertices", "8"), "json", 0, '{"code": "0 2 1 7 7 3 1 5 6 4 6 5 0 4 3 2", "command": "random"}\n'),
]


@pytest.mark.parametrize("argv, fmt, status, stdout", PINNED,
                         ids=[f"{a[0]}-{i}-{f}" for i, (a, f, _, _) in enumerate(PINNED)])
def test_pinned_output(capsys, argv, fmt, status, stdout):
    assert run(capsys, *argv, "--format", fmt)[:2] == (status, stdout)


# ---------------------------------------------------------------------------
# error paths


def test_parse_error_exit_code(capsys):
    status, _, err = run(capsys, "canon", "a b a")
    assert status == 1 and "error:" in err


def test_precondition_exit_code(capsys):
    status, _, err = run(capsys, "delta", "a b | a b")
    assert status == 2 and "component" in err


def test_budget_exit_code(capsys):
    lines = "\n".join(f"v{i}: v{(i+1) % 9}" for i in range(9))
    status, _, err = run(capsys, "realizable", lines)
    assert status == 3


def test_state_sum_budget_exit_code(capsys):
    # kink- and bigon-free, 21 of 25 chords Gaussian-even (tests/test_brackets.py)
    evens_21 = ("a b c d e f g h i j k l m n o p q j r s h t n u v m u a l i p c w x d s "
                "o q t k f r b e w g y v x y")
    status, out, err = run(capsys, "abracket", evens_21)
    assert status == 3 and out == ""
    assert err == "error: 21 even crossings; state sums stop at 20\n"


def test_state_sum_budget_counts_no_kink(capsys):
    kinks = " ".join(f"{c} {c}" for c in "abcdefghijklmnopqrstu")
    status, out, err = run(capsys, "abracket", kinks)
    assert status == 0 and err == ""
    assert out == "O\n"


@pytest.mark.parametrize("argv, status, message", [
    (("enumerate", "9", "1"), 3, "enumeration is bounded at 8 chords"),
    (("enumerate", "-1", "1"), 2, "n and k must be non-negative"),
    (("random", "-1", "1", "--seed", "1"), 2, "n and k must be non-negative"),
    (("realizable", "a b"), 1, "adjacency line 'a b' lacks ':'"),
    (("realizable", ": b"), 1, "adjacency line ': b' lacks a vertex"),
    (("realizable", "a: a"), 1, "loop at 'a' not allowed"),
])
def test_documented_errors_exit_with_their_status(capsys, argv, status, message):
    assert run(capsys, *argv) == (status, "", f"error: {message}\n")


def test_search_budget_exit_code(capsys, monkeypatch):
    # unbudgeted, this search visits 3 classes and misses its target (exit 3 too)
    monkeypatch.setattr(analysis, "SEARCH_MAX_VISITED", 2)
    status, out, err = run(capsys, "bfs", "a a", "a b a b c c", "--max-vertices", "2", "--max-depth", "1")
    assert status == 3 and out == ""
    assert err == "error: move search visited more than 2 classes\n"


@pytest.mark.parametrize("text", ["a ² a ²", "é x é x"])
def test_non_ascii_label_is_parse_error(capsys, text):
    status, out, err = run(capsys, "canon", text)
    assert status == 1 and out == "" and err.startswith("error: malformed token")


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_bytes(b"\xff a a")
    status, out, err = run(capsys, "canon", "--file", str(f))
    assert status == 1 and out == "" and err.startswith("error: ")


FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "freeknot" / "fixtures"


@pytest.mark.parametrize("command", ["canon", "bound", "kbracket"])
@pytest.mark.parametrize("name, line", [("k1", K1), ("l1", L1)])
def test_file_input_skips_comment_lines(capsys, command, name, line):
    path = FIXTURES / f"{name}.gauss"
    assert path.read_text().startswith("#")
    assert run(capsys, command, "--file", str(path)) == run(capsys, command, line)


def test_reused_parser_carries_no_state_between_calls(capsys):
    assert run(capsys, "canon", "a b a", "--format", "json")[0] == 1
    assert run(capsys, "components", "a b | a b") == (0, "2\n", "")
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "canon", "b a b a") == (0, "a b a b\n", "")


def test_missing_input_is_usage_error(capsys):
    status, _, err = run(capsys, "canon")
    assert status == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_byte_identical_reruns(capsys):
    for argv in (
        ["delta", "a b a c b c"],
        ["abracket", "a b a c b c", "--format", "json"],
        ["kdelta", "a b a c b c"],
        ["enumerate", "3", "1"],
        ["interlacement", "a b a c b c", "--format", "dot"],
    ):
        assert run(capsys, *argv) == run(capsys, *argv)
