"""The demos call only what the package exports."""

import ast
from pathlib import Path

import pdxplain as px

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def px_names(path) -> set[str]:
    """Every ``px.<name>`` that ``path`` reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "px"
    }


def test_demos_use_only_exported_names():
    files = sorted(DEMOS.glob("*.py"))
    assert files
    used = {path.name: px_names(path) for path in files}
    assert all(used.values()), used
    unknown = [f"{name}: px.{attr}" for name, attrs in used.items() for attr in sorted(attrs)
               if not hasattr(px, attr)]
    assert not unknown, unknown
