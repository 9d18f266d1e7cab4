"""The package's modules import each other in one order, with no cycle.

groups -> algebra -> shoda -> components -> props -> verify/cli: each
module imports only modules before it. Every relative import is read
from the source with `ast`, at any depth, so an import hidden inside a
function counts too. Only cli's import of verify is made inside a
function, so that `analyze` does not load the verification suite. No
module imports `random`.
"""

import ast
from pathlib import Path

import qgring

PACKAGE = Path(qgring.__file__).parent


def _relative_imports():
    """(importer, imported, inside a function) for each relative import."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, in_function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ImportFrom) and child.level:
                    targets = ([child.module] if child.module
                               else [alias.name for alias in child.names])
                    out.extend((module, t, in_function) for t in targets)
                visit(child, in_function or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

        visit(ast.parse(path.read_text()), False)
    return out


def test_module_imports_have_no_cycle():
    graph: dict[str, set[str]] = {}
    for importer, imported, _ in _relative_imports():
        graph.setdefault(importer, set()).add(imported)
    done: set[str] = set()

    def walk(module, path):
        assert module not in path, "import cycle: " + " -> ".join(path + [module])
        if module in done:
            return
        for imported in sorted(graph.get(module, ())):
            walk(imported, path + [module])
        done.add(module)

    for module in sorted(graph):
        walk(module, [])


def test_only_cli_imports_verify_inside_a_function():
    lazy = {(importer, imported)
            for importer, imported, in_function in _relative_imports()
            if in_function}
    assert lazy == {("cli", "verify")}


def test_no_module_imports_random():
    # every certificate is exact, so nothing in the package samples
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                importers.append(path.stem)
    assert importers == []
