"""Smoke tests of the scripts under ``scripts/``.  The fixture search in
``scripts/find_fixtures.py`` is run by the fixture tests, which import it."""

import subprocess
import sys


def test_survey_counts_the_one_circle_classes(repo_root):
    script = repo_root / "scripts" / "survey_small_diagrams.py"
    run = subprocess.run([sys.executable, str(script), "--max-chords", "3"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(0, 1), (1, 1), (2, 2), (3, 5)]
