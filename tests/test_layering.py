"""The package's modules import each other in one order, with no cycle.

groups -> abelian_sections -> algebra -> shoda -> components -> props ->
verify/cli: each module imports only modules before it. Every relative
import is read from the source with `ast`, at any depth, so an import
hidden inside a function counts too. Only cli's import of verify is made inside a
function, so that `analyze` does not load the verification suite. No
module imports `random`, and only algebra names `SquareZeroFamily`. The
PCI layer names no subgroup lattice: a pair's label reads the lattice's
generator rule, groups.lattice_generators. A pair's maximality is tested
in one place, and no module imports a name it never uses. The property
layer reads the lattice only for an SN group that is not Dedekind.
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


def test_only_algebra_names_the_square_zero_family():
    # the square-zero search is one loop, algebra.square_zero_search: no
    # other module builds a family or reads its pair tests
    namers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ClassDef):
                names = [node.name]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "SquareZeroFamily" in names:
                namers.add(path.stem)
    assert namers == {"algebra"}


def _scopes(module, hit):
    """The qualified names of the functions and classes in which a module's
    source has a node that hit accepts ("" for the module level)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if hit(child):
                found.add(scope)
            visit(child, inner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "")
    return found


def _namers(module, name):
    """The scopes (_scopes) in which a module's source names `name`,
    outside its imports."""
    return _scopes(module, lambda node: (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name))


def test_the_pci_layer_reads_no_lattice():
    # the pairs come from abelian sections (abelian_sections, over the A of
    # groups.maximal_abelian_over); a pair's label alone names the
    # generators the lattice gives its subgroups, through the lattice's own
    # rule in groups, which reads the lattice only where it has no closed
    # form
    assert _namers("shoda", "subgroups") == set()
    assert _namers("shoda", "lattice_generators") == {"ShodaPair.describe"}
    assert _namers("groups", "subgroups") >= {"_lattice_entry"}
    # epsilon has the one closed form of a cyclic H/K: no product over the
    # minimal normal subgroups of H/K, which the lattice gave
    assert _definers("minimal_normal_subgroups_of_quotient") == set()
    assert "epsilon" not in _namers("shoda", "subgroups") | _namers("shoda", "tilde")
    assert "maximal_abelian_over" not in _namers("groups", "subgroups")
    assert _namers("abelian_sections", "subgroups") == set()
    # the square-zero search walks the cyclic subgroups alone
    assert _namers("algebra", "subgroups") == set()
    # the scan sees names inside functions
    assert "maximal_abelian_over" in _namers("groups", "_commuting_mask")
    assert "cocyclic_subgroups" in _namers("abelian_sections", "derived_subgroup")


def _definers(name):
    """The modules that define a function called `name`."""
    return {path.stem for path in PACKAGE.glob("*.py")
            if _scopes(path.stem, lambda node: isinstance(node, ast.FunctionDef)
                       and node.name == name)}


def test_one_cyclic_section_test():
    # whether H/K is cyclic is decided by section_generator alone, which
    # the kernels of abelian sections and the metacyclic test of the
    # lattice's generator rule ask too; it lives in groups, below both
    assert "cocyclic_subgroups" in _namers("abelian_sections", "section_generator")
    assert "is_metacyclic" in _namers("groups", "section_generator")
    assert _definers("section_generator") == {"groups"}


def test_one_subgroup_scan():
    # a membership test is stated as a mask and wrapped by
    # subgroup_from_mask, with no second scan; a centralizer is the AND of
    # the commuting masks that maximal_abelian_over reads
    assert _definers("subgroup_from_mask") == {"groups"}
    assert _definers("stabilizer") == set()
    assert {"centralizer", "maximal_abelian_over"} <= _namers("groups", "_commuting_mask")


def test_one_join_normality_test():
    # SN and SSN decide every (N, <y>) with one closure-free coset test,
    # SSN reads one non-normal subgroup per conjugacy class, and none of
    # SN, SSN and NCN lists the normal subgroups
    assert _definers("_sn_scan") == set()
    assert _namers("props", "_join_is_normal") == {"is_sn", "is_ssn.passes"}
    assert _namers("props", "_non_normal_classes") == {"is_ssn"}
    assert _namers("props", "normal_subgroups") == set()


def test_the_property_layer_reads_the_lattice_past_sn_and_dedekind_alone():
    # SSN's non-normal classes and the NCN scan read the lattice, each only
    # for an SN group that is not Dedekind; classify_ssn's type (i) is
    # decided by normal closures and _ncn_family's minimality by Redei's
    # criterion, with no lattice
    assert _namers("props", "subgroups") == {"_non_normal_classes", "is_ncn"}
    assert _namers("props", "_lattice_entry") == {"is_ssn.passes"}


def test_one_maximality_filter():
    # a pair's maximality is decided by _maximal_abelian_pairs alone, one
    # mask test per kernel, and the fixed field's degree is read off
    # |N : H| with no closure walk over the action exponents
    tree = ast.parse((PACKAGE / "abelian_sections.py").read_text())
    cocyclic = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                    and node.name == "cocyclic_subgroups")
    assert [a.arg for a in cocyclic.args.args] == ["B", "D"]
    assert not cocyclic.args.kwonlyargs and not cocyclic.args.vararg
    assert _scopes("abelian_sections", lambda node: (
        isinstance(node, ast.Name) and node.id == "avoid"
        or isinstance(node, ast.arg) and node.arg == "avoid")) == set()
    assert _definers("_fixed_field_degree") == set()


def test_no_module_imports_a_name_it_never_uses():
    # an import left behind by a cut is dead code; __init__ re-exports the
    # names of its __all__
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= {elt.value for elt in node.value.elts}
        unused += [f"{path.stem}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_memo_lives_in_a_groups_cache():
    # a module-level memo outlives the group it was built for, while a
    # cold op (perfbench's ColdCacheGuard) empties only the group's _cache;
    # cli's parser, built once per process, holds no group
    def memo(node):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            names = {node.attr}
        else:
            return False
        return bool(names & {"lru_cache", "cache"})

    users = {(path.stem, scope) for path in sorted(PACKAGE.glob("*.py"))
             for scope in _scopes(path.stem, memo)}
    assert users == {("cli", "_parser")}


def _cache_keys(tree):
    """The string keys of the `._cache` entries read or written in a
    module: a string key, the first element of a tuple key, and the same
    for a name assigned such a key in the enclosing function."""
    def names_of(expr, named):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return {expr.value}
        if isinstance(expr, ast.Tuple) and expr.elts:
            return names_of(expr.elts[0], named)
        if isinstance(expr, ast.BinOp):  # ("facts",) + e.key()
            return names_of(expr.left, named)
        if isinstance(expr, ast.Name):
            return named.get(expr.id, set())
        return set()

    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    keys = set()
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        named: dict[str, set[str]] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        named.setdefault(target.id, set()).update(
                            names_of(node.value, {}))
        for node in ast.walk(scope):
            if isinstance(node, ast.Subscript) and is_cache(node.value):
                keys |= names_of(node.slice, named)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and is_cache(node.func.value) and node.args):
                keys |= names_of(node.args[0], named)  # get, setdefault, pop
            elif (isinstance(node, ast.Compare) and len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.In, ast.NotIn))
                    and is_cache(node.comparators[0])):
                keys |= names_of(node.left, named)
    return keys


def test_each_memo_key_belongs_to_one_module():
    # a module asks another for a fact through its functions, never by
    # reading that module's memo entries in a group's cache
    owners: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for key in _cache_keys(ast.parse(path.read_text())):
            owners.setdefault(key, set()).add(path.stem)
    shared = {key: sorted(mods) for key, mods in owners.items() if len(mods) > 1}
    assert shared == {}
    # the scan sees the keys it is meant to see
    assert {"normal", "subgroups", "cosets", "classes"} <= {
        key for key, mods in owners.items() if mods == {"groups"}}
    assert {"strong", "pcis"} <= {
        key for key, mods in owners.items() if mods == {"shoda"}}
    assert owners["section"] == {"groups"}
