import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patches():
    # read the PATCHES literal without importing the benchmark (no bytecode is written there)
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCHES in {TRACER}")


@pytest.mark.parametrize("module, attr, span", _patches())
def test_traced_names_exist(module, attr, span):
    # `perfbench/run.py --trace 1` replaces these names by lookup; a missing one crashes it
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} ({span})"
