"""The benchmark's tracer wraps package callables by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_layers():
  spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
  module = importlib.util.module_from_spec(spec)
  spec.loader.exec_module(module)
  return module.LAYERS


@pytest.mark.parametrize("module_name, path", [
    target for targets in tracer_layers().values() for target in targets])
def test_every_traced_callable_resolves(module_name, path):
  owner = importlib.import_module(module_name)
  for attr in path.split("."):
    owner = getattr(owner, attr)
  assert callable(owner)
