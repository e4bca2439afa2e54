import types

import critcolor


def test_star_import_binds_names_not_submodules():
    namespace: dict = {}
    exec("from critcolor import *", namespace)
    assert not [name for name, obj in namespace.items() if isinstance(obj, types.ModuleType)]
    assert {"Graph", "parse_graph6", "enumerate_critical", "certify_k_colorable"} <= set(namespace)
