"""Public names that code outside the package looks up by name."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layer_functions() -> dict:
    """``LAYER_FUNCTIONS`` of the benchmark's tracer, read from its source
    without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {SPANS}")


LAYER_FUNCTIONS = _layer_functions()


@pytest.mark.parametrize("layer", sorted(LAYER_FUNCTIONS))
def test_traced_functions_exist(layer):
    # the tracer rebinds each of these by name; a missing one fails the
    # traced benchmark run
    module = importlib.import_module(f"treegibbs.{layer}")
    missing = [name for name in LAYER_FUNCTIONS[layer] if not callable(getattr(module, name, None))]
    assert not missing, f"treegibbs.{layer} lacks {missing}"
