"""The package imports in one direction, and imports nothing it leaves
unused.

Every import of a congruence module sits at module level, and those imports
form an acyclic graph: scalar -> matrix -> cosquare -> blocks -> jordan ->
canon -> quat -> cli.  Third-party packages (sympy, numpy) may still be
imported on demand inside functions.  Every name a module imports at module
level is read in it or listed in its __all__ (a re-export).
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


def exported(tree):
    """The names a module's top-level __all__ lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in parse_modules().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)} | exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # "import a.b" binds a
                unused += ["%s.py:%d %s" % (name, node.lineno, bound)
                           for bound in (a.asname or a.name.split(".")[0]
                                         for a in node.names)
                           if bound not in read]
    assert unused == []
