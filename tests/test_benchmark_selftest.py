"""The benchmark (perfbench/) checks every operation's outputs against its own
references: edge records, verdicts, solutions.  Its self-test runs those
checks on small meshes, so a change that the benchmark would report as
incorrect output fails here first."""
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_selftest():
    spec = importlib.util.spec_from_file_location("perfbench_selftest",
                                                  PERFBENCH / "selftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_passes(tmp_path, monkeypatch):
    # selftest.py imports its sibling modules by their plain names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        selftest = _load_selftest()
        assert selftest.run(selftest.program.load(), tmp_path) == []
    finally:
        for name in set(sys.modules) - before:
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(str(PERFBENCH)):
                del sys.modules[name]
