"""The benchmark's per-layer trace rebinds library functions by name
(``perfbench/layertrace.py``); a renamed or deleted function would break
``perfbench/run.py --trace 1``.  This reads that list and checks each name."""

import importlib
import importlib.util


def test_traced_functions_exist(repo_root):
    path = repo_root / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TRACED_NAMES
    for name in layertrace.TRACED_NAMES:
        module, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"freeknot.{module}"), fn, None)), name
    # ``perfbench/run.py::cache_counts`` reads the cache in every run, traced or not
    assert callable(getattr(importlib.import_module("freeknot.diagrams").canonicalize, "cache_info", None))
