import ast
from pathlib import Path

import gotzmann


def test_library_has_no_assert_statements():
    # internal invariants must survive `python -O`, so they are raised checks
    package = Path(gotzmann.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
