import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "beepnet"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
    spans = _load_spans()
    for module, attr, _ in spans.TARGETS:
        owner, name = spans._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"
    for module, name in spans.BINDING_SPANS:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_no_module_imports_a_name_it_never_uses():
    # An import left behind by a rewrite is dead weight that reads like a
    # dependency.  A name counts as used where the module loads it (as a
    # name or the head of an attribute chain) or lists it in __all__.
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused.extend(f"{path.relative_to(PACKAGE)}:{line} {name}"
                      for name, line in imported.items() if name not in used)
    assert not unused, f"imported names nobody uses: {unused}"


def _references(tree: ast.AST) -> Counter:
    """Names, attribute names and imported names that tree mentions."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scopes_where(match) -> list[tuple[str, str]]:
    """(file, innermost def, class or lambda around it) of each node of the
    package that match accepts, with `<module>` for top-level code."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope in ast.walk(tree):
            if not isinstance(scope, _SCOPES):
                continue
            todo = list(ast.iter_child_nodes(scope))
            while todo:
                node = todo.pop()
                if isinstance(node, _SCOPES):
                    continue
                if match(node):
                    found.append((str(path.relative_to(PACKAGE)), getattr(scope, "name", "<module>")))
                todo.extend(ast.iter_child_nodes(node))
    return found


def test_each_run_check_lives_once():
    # run_single revalidates the traces of every protocol, and Trace.check
    # is the one block-layout gate that validate_trace and the handshake
    # replay call, so a second copy of either check fails here.
    def names_validate_trace(node):
        return "validate_trace" in (getattr(node, "id", None), getattr(node, "attr", None))

    def says_block_layout(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(part in node.value for part in (
                    "trace block at round", "should start at round", "in patterns of shape")))

    assert _scopes_where(names_validate_trace) == [("harness.py", "run_single")]
    assert set(_scopes_where(says_block_layout)) == {("engine.py", "check")}


def test_every_top_level_definition_has_a_user():
    # A function or class in src/beepnet must be named somewhere other than
    # its own body: in package code, in a test, or as a benchmark span
    # target. Matching is by name, like a grep, so it can miss dead code
    # whose name is reused elsewhere, but it never flags live code.
    spans = _load_spans()
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))}
    used: Counter = Counter()
    for tree in trees.values():
        used.update(_references(tree))
    used.update(part for _, attr, _ in spans.TARGETS for part in attr.split("."))
    unused = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if used[node.name] - _references(node)[node.name] <= 0:
                    unused.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}")
    assert not unused, f"definitions nobody uses: {unused}"


def test_protocol_schedules_take_no_seed():
    # Every node derives a protocol's schedule from public parameters alone,
    # so the protocol layer always fetches the DEFAULT_SEED selector families.
    # generate_cluster_layout is the one exception: its seed draws a layout.
    paths = [PACKAGE / "c2b.py", PACKAGE / "multihop.py",
             *sorted((PACKAGE / "protocols").glob("*.py"))]
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "seed" in names and node.name != "generate_cluster_layout":
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}")
    assert not found, f"protocol functions taking a seed: {found}"


def test_selector_construction_shares_no_verification_code():
    # Verification is the independent check on the greedy builder, so the
    # builder and everything it reaches in selectors.py name none of the
    # verifier's counting: neither the kernel nor any helper it reaches.
    # The two share only the subset generator.
    tree = ast.parse((PACKAGE / "selectors.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def reach(start):
        reached, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(ref for ref in _references(defs[name]) if ref in defs)
        return reached

    builder = reach("_greedy_sets")
    assert {"_Cover", "_random_members", "_iter_subset_cols"} <= builder
    kernel = reach("_isolation_counts")
    assert not kernel & builder
    named = Counter()
    for name in builder:
        named.update(_references(defs[name]))
    shared = sorted(ref for ref in named
                    if ref in kernel | {"element_words", "_all_subsets_pass"}
                    or ref.startswith("verify_"))
    assert not shared, f"greedy construction names verification code: {shared}"


def _code_references(tree: ast.AST) -> Counter:
    """_references less what only annotations mention: they run no code."""
    found = _references(tree)
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                found.subtract(_references(annotation))
    return +found


def test_revalidation_names_no_producer_code():
    # Revalidation shares no code with the path that produced a run: the
    # trace oracle, the handshake replay with its trace reader, the auditor
    # with the edge slots it is handed, the neighbour table they read, and
    # the code they reach in their own module name neither the kernel nor
    # the CSR it gathers over.
    for module, dotted in (("engine.py", "validate_trace"), ("engine.py", "Trace.check"),
                           ("c2b.py", "_Auditor"),
                           ("c2b.py", "_EdgeSlots"), ("c2b.py", "check_handshake_lemmas"),
                           ("graphs.py", "Graph.neighbor_table")):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        owner, _, member = dotted.partition(".")
        start = defs[owner]
        if member:
            start = next(node for node in start.body
                         if isinstance(node, ast.FunctionDef) and node.name == member)
        reached, todo, named = set(), [start], Counter()
        while todo:
            node = todo.pop()
            refs = _code_references(node)
            named.update(refs)
            for ref in refs:
                if ref in defs and ref not in reached and ref != owner:
                    reached.add(ref)
                    todo.append(defs[ref])
        found = sorted(ref for ref in named if ref in ("kernel", "csr"))
        assert not found, f"{module}:{dotted} reaches {found} (through {sorted(reached)})"
