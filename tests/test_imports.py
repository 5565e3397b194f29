"""The package imports in one direction.

Every import of a congruence module sits at module level, and those imports
form an acyclic graph: scalar -> matrix -> cosquare -> blocks -> jordan ->
canon -> quat -> cli.  Third-party packages (sympy, numpy) may still be
imported on demand inside functions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "congruence"
PACKAGE = SRC.name


def package_imports(node):
    """The package modules one import statement names, or []."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            base = node.module or ""
        elif node.module and node.module.split(".")[0] == PACKAGE:
            base = node.module[len(PACKAGE) + 1:]
        else:
            return []
        # "from . import x" names the module x; "from .x import y" names x
        return ([a.name for a in node.names] if not base
                else [base.split(".")[0]])
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.split(".")[0] == PACKAGE and "." in a.name]
    return []


def parse_modules():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def test_no_package_import_inside_a_function():
    late = []
    for name, tree in parse_modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += ["%s.py:%d" % (name, node.lineno)
                         for node in ast.walk(fn) if package_imports(node)]
    assert late == []


def test_module_imports_are_acyclic():
    trees = parse_modules()
    graph = {name: {m for node in ast.walk(tree)
                    for m in package_imports(node) if m != name}
             for name, tree in trees.items()}
    assert set().union(*graph.values()) <= set(graph)
    # depth-first search; a module met again while still on the path closes
    # a cycle
    done, path = set(), []

    def visit(name):
        assert name not in path, "import cycle: " + " -> ".join(
            path[path.index(name):] + [name])
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
