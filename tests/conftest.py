import pathlib
import sys

import pytest

from freeknot.diagrams import parse_gauss_code

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
# the tests import the fixture search from its script
sys.path.insert(0, str(REPO_ROOT / "scripts"))


@pytest.fixture(scope="session")
def repo_root() -> pathlib.Path:
    return REPO_ROOT


def code(text: str):
    return parse_gauss_code(text)
