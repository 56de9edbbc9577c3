"""perfbench reaches ``invdom`` by name, so a refactor that renames or
deletes one of those names breaks the benchmark without failing a test of
``invdom`` itself.  Its tracer wraps the (module, function) pairs of its
``TRACED`` table, so each must stay a function of ``invdom``: deleting one
breaks every ``--trace 1`` run.  Its other files import ``invdom`` names and
read attributes of them, such as ``generate._ALL_GRAPHS``.  The files are
read with ``ast``; perfbench is neither imported nor run here."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def perfbench_invdom_names() -> set[str]:
    """Dotted ``invdom`` names the perfbench files import or read an attribute of."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> the dotted invdom name it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "invdom":
                        names.add(alias.name)
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:
                            bound["invdom"] = "invdom"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "invdom":
                for alias in node.names:
                    names.add(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in bound:
                    names.add(f"{bound[node.value.id]}.{node.attr}")
    return names


def resolves(dotted: str) -> bool:
    """True iff ``dotted`` names a submodule or attribute reachable from ``invdom``."""
    obj = importlib.import_module("invdom")
    prefix = "invdom"
    for part in dotted.split(".")[1:]:
        prefix = f"{prefix}.{part}"
        try:
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(prefix)
        except ImportError:
            return False
    return True


def test_every_invdom_name_perfbench_reaches_resolves():
    names = perfbench_invdom_names()
    assert "invdom.generate._ALL_GRAPHS" in names and "invdom.harness.RunConfig" in names
    assert sorted(name for name in names if not resolves(name)) == []
