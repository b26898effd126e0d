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


def test_no_environment_reads_in_package():
    # every setting arrives as an argument, never from the process environment
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv", "environb", "getenvb")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
                if names & {"environ", "getenv", "environb", "getenvb"}:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"environment reads in essentia: {found}"


def test_public_names_resolve_and_are_not_modules():
    for name in essentia.__all__:
        obj = getattr(essentia, name)  # AttributeError if it does not resolve
        assert not isinstance(obj, types.ModuleType), name
