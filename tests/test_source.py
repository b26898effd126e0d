"""Guards on the package source itself."""

import ast
import types
from pathlib import Path

import essentia

PACKAGE = Path(essentia.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in essentia: {found}"


def test_public_names_resolve_and_are_not_modules():
    for name in essentia.__all__:
        obj = getattr(essentia, name)  # AttributeError if it does not resolve
        assert not isinstance(obj, types.ModuleType), name
