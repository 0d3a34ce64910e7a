"""The package runs on the standard library alone: every absolute import in
``src/freeknot`` names a standard-library module.  Relative imports stay
inside the package."""

import ast
import sys


def test_package_imports_only_the_standard_library(repo_root):
    files = sorted((repo_root / "src" / "freeknot").glob("*.py"))
    assert files
    found = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert found
    assert [(f, m) for f, m in sorted(found) if m not in sys.stdlib_module_names] == []
