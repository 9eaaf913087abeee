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


def test_copy_functions_consume_the_public_stream(monkeypatch):
    """The tracer counts embed.embeddings_emitted on items of the public
    enumerate_embeddings pulled by the copy functions; a route around that
    name would read 0 without failing anything else."""
    from ramseykit import embed
    from ramseykit.graphs import complete_graph

    original = embed.enumerate_embeddings
    pulled = []

    def counting(*args, **kwargs):
        for emb in original(*args, **kwargs):
            pulled.append(emb)
            yield emb

    monkeypatch.setattr(embed, "enumerate_embeddings", counting)
    k3, k5 = complete_graph(3), complete_graph(5)
    assert embed.count_copies(k3, k5) == (10, False)
    assert len(pulled) == 10
    pulled.clear()
    pairs, truncated = embed.enumerate_copies_with_witness(k3, k5, pin=(0, 0))
    assert (len(pairs), truncated) == (6, False)
    assert len(pulled) == 6
