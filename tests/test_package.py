import ast
import sys
import types
from pathlib import Path

import critcolor


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
