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
