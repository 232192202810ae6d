import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "beepnet"


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


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps package functions by name from outside; a
    # rename in the package must not silently drop a span.
    spec = importlib.util.spec_from_file_location("_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.TARGETS:
        owner, name = spans._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"
    for module, name in spans.BINDING_SPANS:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
