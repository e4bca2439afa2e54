import ast
import inspect
import sys
import types
from pathlib import Path

import critcolor
from critcolor.chroma import _Budget


def test_star_import_binds_names_not_submodules():
    namespace: dict = {}
    exec("from critcolor import *", namespace)
    assert not [name for name, obj in namespace.items() if isinstance(obj, types.ModuleType)]
    assert {"Graph", "parse_graph6", "enumerate_critical", "certify_k_colorable"} <= set(namespace)


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(critcolor.__file__).parent.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def referenced_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """The names and attribute names read anywhere in tree outside skip."""
    inside = {id(node) for node in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def private_helpers_without_callers(package_dir: Path) -> list[str]:
    """Module-level private functions and classes of the package that no
    code outside their own definition names."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package_dir.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for helper in tree.body:
            if not isinstance(helper, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not helper.name.startswith("_") or helper.name.startswith("__"):
                continue
            if not any(helper.name in referenced_names(t, helper) for t in trees.values()):
                unused.append(f"{module}:{helper.name}")
    return unused


def test_every_private_helper_is_used_elsewhere_in_the_package():
    assert private_helpers_without_callers(Path(critcolor.__file__).parent) == []


def unused_imports(package_dir: Path) -> list[str]:
    """Names imported by a module of the package (``__init__`` aside) that
    the module never reads.  ``from __future__`` imports and lines marked
    ``# noqa: F401`` are exempt."""
    unused = []
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{name}")
    return unused


def test_unused_imports_finds_what_a_module_never_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import f\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import (\n"
        "    Optional,\n"
        "    Sequence,\n"
        ")\n"
        "from sys import argv  # noqa: F401\n"
        "def f(x: Optional[int]) -> None:\n"
        "    os.path.join('a')\n"
    )
    assert unused_imports(tmp_path) == ["mod.py:j", "mod.py:Sequence"]


def test_every_import_is_read_by_its_module():
    assert unused_imports(Path(critcolor.__file__).parent) == []


C5 = critcolor.parse_graph6("Dhc")
K4_DB = critcolor.CriticalDb(4, (), (critcolor.to_graph6(critcolor.complete_graph(4)),))

# one small call of each public function that takes a budget
BUDGETED_CALLS = {
    "clique_number": lambda b: critcolor.clique_number(C5, budget=b),
    "independence_number": lambda b: critcolor.independence_number(C5, budget=b),
    "is_k_colorable": lambda b: critcolor.is_k_colorable(C5, 3, budget=b),
    "chromatic_number": lambda b: critcolor.chromatic_number(C5, budget=b),
    "find_induced_subgraph": lambda b: critcolor.find_induced_subgraph(
        C5, critcolor.from_edges(3, [(0, 1), (1, 2)]), budget=b),
    "find_induced": lambda b: critcolor.find_induced(C5, critcolor.path(4), budget=b),
    "is_free": lambda b: critcolor.is_free(C5, [critcolor.clique(3), critcolor.path(4)], budget=b),
    "criticality_report": lambda b: critcolor.criticality_report(C5, 3, budget=b),
    "certify_k_colorable": lambda b: critcolor.certify_k_colorable(C5, 3, K4_DB, budget=b),
}


def test_every_public_budget_takes_none_a_count_or_a_counter():
    budgeted = set()
    for name in critcolor.__all__:
        obj = getattr(critcolor, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        if "budget" in inspect.signature(obj).parameters:
            budgeted.add(name)
    assert budgeted == set(BUDGETED_CALLS)
    for name, call in BUDGETED_CALLS.items():
        answer = call(None)
        assert call(10**6) == answer, name
        counter = _Budget(10**6)
        assert call(counter) == answer, name
        assert counter.left < 10**6, name


def package_trees() -> dict[str, ast.Module]:
    package_dir = Path(critcolor.__file__).parent
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(package_dir.glob("*.py"))}


def test_only_the_conversion_makes_a_counter():
    makers = []
    for module, tree in package_trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_Budget" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    makers.append(f"{module}:{getattr(top, 'name', '<module>')}")
    assert makers == ["chroma.py:_counter"]


def test_the_counter_has_no_second_way_in():
    names = set()
    for tree in package_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "_Budget":
                names |= {getattr(item, "name", None) for item in node.body}
                names |= {t.id for item in node.body if isinstance(item, ast.Assign)
                          for t in item.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.Attribute) and "_Budget" in (
                getattr(node.value, "id", None), getattr(node.value, "attr", None)
            ):
                names.add(node.attr)
    assert names and not names & {"shared", "capped"}


def atom_kind_strings_outside_the_table(tree: ast.Module) -> list[str]:
    """String constants of a module that name an atom kind of its
    ``_ATOMS`` table, outside the table itself, the one-line constructors
    (``def path(n): return PatternSpec("path", n)``) and the named
    constants (``CHAIR = PatternSpec("chair")``)."""
    table = [node for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["_ATOMS"]]
    assert len(table) == 1, "no _ATOMS table"
    kinds = {key.value for key in table[0].value.keys}

    def makes_a_spec(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PatternSpec"

    allowed = set()
    for node in tree.body:
        if (node is table[0]
                or isinstance(node, ast.Assign) and makes_a_spec(node.value)
                or isinstance(node, ast.FunctionDef) and len(node.body) == 1
                and isinstance(node.body[0], ast.Return) and makes_a_spec(node.body[0].value)):
            allowed |= {id(inner) for inner in ast.walk(node)}
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in kinds and id(node) not in allowed]


def test_atom_kind_guard_finds_a_kind_outside_the_table():
    tree = ast.parse(
        '_ATOMS = {"path": ("P{}",), "chair": ("chair",)}\n'
        'CHAIR = PatternSpec("chair")\n'
        '_SIMPLE = {"chair"}\n'
        'def path(n):\n'
        '    return PatternSpec("path", n)\n'
        'def realize(spec):\n'
        '    if spec.kind == "path":\n'
        '        return 1\n'
    )
    assert atom_kind_strings_outside_the_table(tree) == ["line 3: 'chair'", "line 7: 'path'"]


def test_only_the_atom_table_names_atom_kinds():
    source = (Path(critcolor.__file__).parent / "patterns.py").read_text()
    assert atom_kind_strings_outside_the_table(ast.parse(source)) == []
