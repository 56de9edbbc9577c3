"""perfbench's tracer wraps the (module, function) pairs of its ``TRACED``
table by name, so each must stay a function of ``invdom``: deleting one
breaks every ``--trace 1`` run.  The table is read from the file with
``ast``; perfbench is neither imported nor run here."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_pairs() -> list[tuple[str, str]]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{TRACING} assigns no TRACED table")


def test_every_traced_function_resolves_in_invdom():
    pairs = traced_pairs()
    assert pairs
    missing = [
        f"invdom.{module}.{func}"
        for module, func in pairs
        if not callable(getattr(importlib.import_module(f"invdom.{module}"), func, None))
    ]
    assert missing == []
