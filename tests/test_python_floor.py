"""``pyproject.toml`` names the oldest Python that ``invdom`` runs on, and
every file of the package and its tests must parse in that version's
grammar.  The floor is read from the ``requires-python`` line with a regex,
since ``tomllib`` came in 3.11."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def python_floor() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found[1]), int(found[2])


def test_every_file_parses_at_the_python_floor():
    floor = python_floor()
    paths = sorted((ROOT / "src" / "invdom").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 20
    rejected = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert rejected == []


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",  # 3.11: exception groups
    "type Pair = tuple[int, int]\n",  # 3.12: PEP 695 type aliases
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",  # 3.12: PEP 695 generics
])
def test_the_floor_rejects_newer_syntax(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=python_floor())
