"""The benchmark's tracer patches ramseykit's public functions by name
(perfbench/spans.py LAYERS); every traced name must still exist."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_layers() -> dict:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no LAYERS")


def test_every_traced_name_resolves():
    layers = traced_layers()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"ramseykit.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (layer, missing)
