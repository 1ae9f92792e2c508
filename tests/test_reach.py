"""``tools/reach.py`` lists the unreached statements of any module of
src/collapsekit, a decorated def or class by its ``def`` or ``class`` line."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "collapsekit").glob("*.py"))


@pytest.fixture
def reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_run_that_reaches_nothing_lists_every_def(reach, monkeypatch, path):
    """With no line hit, every statement is unreached, a decorator's line
    included: it is listed at the line of the def it decorates."""
    monkeypatch.setattr(reach, "hit", set())
    listed = {line: stmt for line, _, stmt in reach.unreached(path)}
    decorated = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.decorator_list
    ]
    for node in decorated:
        assert listed[node.lineno].startswith(("def ", "class ")), node.name
    if path.name == "tables.py":
        # a decorated dataclass
        assert listed[next(n.lineno for n in decorated if n.name == "CategoricalScheme")] == (
            "class CategoricalScheme:"
        )
