"""Structure of the package: intra-package imports sit at module
level and form no cycle, and the only import inside a function is the lazy
``scipy.spatial`` one that keeps scipy out of ``import rigidloc``; and the
Gauss-Newton settings are read by one solver loop only."""

import ast
from pathlib import Path

import rigidloc

PACKAGE = Path(rigidloc.__file__).parent
LAZY_IMPORTS = {"scipy.spatial"}


def parse_modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def intra_package_targets(node, modules):
    """Package modules an import statement loads, or an empty list."""
    if isinstance(node, ast.ImportFrom) and node.level > 0:
        if node.module is None:
            return [a.name for a in node.names if a.name in modules]
        return [node.module.split(".")[0]]
    names = [a.name for a in node.names] if isinstance(node, ast.Import) \
        else [node.module or ""]
    return [n.split(".")[1] for n in names
            if n.startswith("rigidloc.") and n.split(".")[1] in modules]


def nested_imports(tree):
    """Import statements that are not top-level statements of the module."""
    top = {id(node) for node in tree.body}
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def imported_name(node):
    if isinstance(node, ast.ImportFrom):
        return "." * node.level + (node.module or "")
    return ", ".join(a.name for a in node.names)


def test_only_lazy_imports_are_nested():
    nested = {f"{name}:{node.lineno} {imported_name(node)}"
              for name, tree in parse_modules().items()
              for node in nested_imports(tree)
              if imported_name(node) not in LAZY_IMPORTS}
    assert nested == set()


def test_module_import_graph_is_acyclic():
    modules = parse_modules()
    graph = {name: {target for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for target in intra_package_targets(node, modules)
                    if target != name}
             for name, tree in modules.items()}
    assert set(graph["__init__"]) >= {"geometry", "completion", "estimators"}

    done, active = set(), []

    def visit(name):
        assert name not in active, f"import cycle: {' -> '.join(active + [name])}"
        if name in done:
            return
        active.append(name)
        for target in sorted(graph[name]):
            visit(target)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def readers(tree, name):
    """Names of the functions that read the module-level ``name``, with
    ``<module>`` for a read outside any function."""
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    and isinstance(child.ctx, ast.Load)):
                found.add(owner)
            walk(child, owner)

    walk(tree, "<module>")
    return found


def test_one_gauss_newton_loop():
    """Every point fix runs on one Gauss-Newton kernel: only it reads the
    iteration cap, and only it and its backtracking read the step
    tolerance."""
    modules = parse_modules()
    iter_cap = {f"{m}.{f}" for m, tree in modules.items()
                for f in readers(tree, "GN_MAX_ITER")}
    step_tol = {f"{m}.{f}" for m, tree in modules.items()
                for f in readers(tree, "GN_STEP_TOL")}
    assert iter_cap == {"estimators._gauss_newton"}
    assert step_tol == {"estimators._gauss_newton", "estimators._backtrack"}
