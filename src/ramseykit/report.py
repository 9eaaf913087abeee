"""Stable JSON report envelope shared by the CLI subcommands.

Identical inputs must yield byte-identical documents: keys are sorted,
layout is fixed, and every randomized quantity is seed-derived.
envelope is the one place a result becomes a document, so handlers return
result dataclasses as they are; only documents shaped unlike their type
(renamed, derived or sorted keys) are built by hand, as plain dicts.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

SCHEMA = "ramseykit.report/1"


def _plain(value):
    """value with dataclasses as dicts of their fields and tuples as lists,
    at any depth.  Sets are left alone: a handler sorts them."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(x) for x in value]
    return value


def envelope(command: str, inputs: dict, result: object, status: str = "ok") -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "status": status,
        "inputs": inputs,
        "result": _plain(result),
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _render(value, indent: int, lines: list[str]):
    pad = "  " * indent
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            lines.append(f"{pad}{value}")
        else:
            for x in value:
                _render(x, indent, lines)
                lines.append(f"{pad}-")
    else:
        lines.append(f"{pad}{value}")


def to_text(doc: dict) -> str:
    """Lossy human rendering of the same data."""
    lines: list[str] = [f"{doc['command']} [{doc['status']}]"]
    _render(doc.get("result", {}), 1, lines)
    return "\n".join(lines) + "\n"
