"""The benchmark's tracer (perfbench/tracing.py) patches dmpfem functions by
name, so every name it traces must stay on the module it names."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import dmpfem
import dmpfem.expressions


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, name",
                         [target for targets in tracing.SPANS.values() for target in targets])
def test_traced_function_resolves(module, name):
    layer = importlib.import_module(f"dmpfem.{module}")
    assert getattr(dmpfem, module) is layer
    assert callable(getattr(layer, name, None))


@pytest.mark.parametrize("name", tracing.EXPRESSION_FACTORIES)
def test_expression_factory_resolves(name):
    assert callable(getattr(dmpfem.expressions, name, None))
