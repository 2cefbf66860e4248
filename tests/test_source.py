import ast
from pathlib import Path

import pytest

import gotzmann


def test_library_has_no_assert_statements():
    # internal invariants must survive `python -O`, so they are raised checks
    package = Path(gotzmann.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_unused_imports():
    # every name a module imports is read in it; __init__.py imports to re-export
    package = Path(gotzmann.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert sorted(unused) == []


@pytest.mark.parametrize("module", ["cli.py", "cache.py"])
def test_cli_imports_no_oracle(module):
    # oracles are referees: the CLI and its cache reach them only through gotzmann.verify
    path = Path(gotzmann.__file__).parent / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and [name for name in imported if name.endswith("_oracle")] == []


def test_cache_reaches_walks_only_through_threshold():
    # a clamped level is walked again by threshold._counts, the same level walk as tau's
    path = Path(gotzmann.__file__).parent / "cache.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "_counts" in imported and {"find_z", "_walk"}.isdisjoint(imported)
