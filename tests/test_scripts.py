"""Smoke tests of the scripts under ``scripts/``.  The fixture search in
``scripts/find_fixtures.py`` is run by the fixture tests, which import it."""

import json
import subprocess
import sys


def test_survey_counts_the_one_circle_classes(repo_root):
    script = repo_root / "scripts" / "survey_small_diagrams.py"
    run = subprocess.run([sys.executable, str(script), "--max-chords", "5"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[1:]]
    # n, classes, R2-irreducible, all even, all odd, irreducibly odd, then
    # the lower-bound histogram
    assert rows == [
        ["0", "1", "1", "1", "0", "1", "0*:1"],
        ["1", "1", "1", "1", "0", "0", "0:1"],
        ["2", "2", "0", "1", "1", "0", "0:2"],
        ["3", "5", "1", "3", "0", "0", "0:5"],
        ["4", "17", "4", "5", "3", "0", "0:17"],
        ["5", "79", "22", "17", "0", "0", "0:76", "3:3"],
    ]


def test_state_sum_bench_prints_one_line_of_medians(repo_root):
    script = repo_root / "scripts" / "bench_state_sums.py"
    run = subprocess.run([sys.executable, str(script), "--chords", "8", "--evens", "2", "4",
                          "--seed", "1", "--repeat", "2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    out = json.loads(line)
    assert {k: out[k] for k in ("chords", "evens", "seed", "repeat")} == {
        "chords": 8, "evens": [2, 4], "seed": 1, "repeat": 2}
    assert sorted(out["median_s"]) == ["alex_bracket", "kauffman_bracket", "kdelta"]
    assert all(t >= 0 for t in out["median_s"].values())
    # the chords and even chords left once every kink and bigon is deleted;
    # for kdelta, the most evens left in a delta term
    assert out["left"] == {"alex_bracket": {"chords": [6, 5], "evens": [2, 1]},
                           "kauffman_bracket": {"chords": [3, 6], "evens": [1, 4]},
                           "kdelta": {"chords": [6, 5], "evens": [4, 2]}}
    # the run's peak resident memory, or null without /proc/self/status
    assert out["vmhwm_mb"] is None or out["vmhwm_mb"] > 0


def test_knot_set_bench_prints_one_line(repo_root):
    script = repo_root / "scripts" / "bench_knot_set.py"
    run = subprocess.run([sys.executable, str(script), "--chords", "8", "--evens", "2", "4",
                          "--count", "3", "--seed", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    out = json.loads(line)
    assert {k: out[k] for k in ("chords", "evens", "count", "seed")} == {
        "chords": 8, "evens": [2, 4], "count": 3, "seed": 1}
    assert out["left"] == [3, 2, 4]
    assert 0 <= out["worst_s"] <= out["total_s"]
    assert out["vmhwm_mb"] is None or out["vmhwm_mb"] > 0
    assert out["digest"] == "37677c0dc31b3fc8b7ee4d4177e68060d16ac6a327a79cd1f52f4a62f124973d"


def test_realizable_bench_prints_one_line_per_case(repo_root):
    script = repo_root / "scripts" / "bench_realizable.py"
    run = subprocess.run([sys.executable, str(script), "--seed", "1", "--repeat", "2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    out = json.loads(line)
    assert {k: out[k] for k in ("seed", "repeat")} == {"seed": 1, "repeat": 2}
    words = [f"word_{n}" for n in range(4, 9)]
    wheels = ["w5_local_complements", "w7", "bw3", "w5_isolated_1", "w5_isolated_2",
              "w5_false_twin_hub", "w5_false_twin_rim", "w5_true_twin_hub", "w5_true_twin_rim",
              "w5_pendant_hub", "w5_pendant_rim", "w5_two_twins"]
    assert sorted(out["cases"]) == sorted(wheels + words)
    assert all(sorted(case) == ["max_ms", "median_ms", "realizable"] for case in out["cases"].values())
    assert {name: case["realizable"] for name, case in out["cases"].items()} == \
        {**dict.fromkeys(wheels, False), **dict.fromkeys(words, True)}


def test_search_bench_prints_one_line_per_case(repo_root):
    script = repo_root / "scripts" / "bench_search.py"
    run = subprocess.run([sys.executable, str(script), "--seed", "1", "--repeat", "2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    out = json.loads(line)
    assert {k: out[k] for k in ("seed", "repeat")} == {"seed": 1, "repeat": 2}
    assert sorted(out["cases"]) == ["bfs/1c/n3", "bfs/1c/n5", "bfs/2c/n4", "bfs/2c/n5", "explore/1c/n3/d3",
                                    "explore/1c/n4/d2", "explore/2c/n3/d2", "explore/2c/n4/d2"]
    assert all(sorted(case) == ["cold_ms", "expanded", "misses", "warm_ms"] for case in out["cases"].values())
    # every cold search canonicalizes, and a sweep runs every class it expands to its end
    assert all(case["misses"] > 0 for case in out["cases"].values())
    assert all(case["expanded"] > 0 for name, case in out["cases"].items() if name.startswith("explore"))
