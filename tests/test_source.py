import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "beepnet"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant guarded by one
    # silently stops being checked; the package raises real errors instead.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.relative_to(PACKAGE)}:{node.lineno}"
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, f"assert statements in src/beepnet: {found}"
