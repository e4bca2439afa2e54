import ast
import inspect
import re
import sys
import types
from pathlib import Path

import critcolor
from critcolor.chroma import _Budget

ROOT = Path(__file__).resolve().parent.parent


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


def names_read_from_package(consumers: list[ast.AST], package: str) -> set[str]:
    """The names the consumers import from the package, or read as
    attributes of a name some consumer binds to the package or to something
    in it (one consumer may hand the package on to another, as ``cc = w.cc``)."""
    bound, names = set(), set()
    for tree in consumers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names
                          if alias.name.partition(".")[0] == package}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == package:
                names |= {alias.name for alias in node.names}
                bound |= {alias.asname or alias.name for alias in node.names}
    for tree in consumers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    names.add(node.attr)
    return names


def definitions(tree: ast.Module, name: str) -> ast.Module:
    """The top-level statements of a module that define name."""
    return ast.Module([top for top in tree.body if name == getattr(top, "name", None)
                       or name in {t.id for t in getattr(top, "targets", []) if isinstance(t, ast.Name)}], [])


def exports_without_readers(package_dir: Path, exported, consumers, readme: str) -> list[str]:
    """The exported names that nothing uses: no module of the package
    (``__init__`` aside) reads one outside its own definition, no consumer
    file imports it from the package or reads it as an attribute of the
    package, and the README does not name it in backticks.  A consumer's
    own function of the same name is not a use."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package_dir.glob("*.py")) if path.name != "__init__.py"]
    read = set()
    for tree in trees:
        read |= {name for name in set(exported) & referenced_names(tree, ast.Pass())
                 if name in referenced_names(tree, definitions(tree, name))}
    consumer_trees = [ast.parse(path.read_text(), filename=str(path)) for path in consumers]
    read |= names_read_from_package(consumer_trees, package_dir.name)
    for span in re.findall(r"`+([^`]+)`+", readme):
        read |= set(re.findall(r"[A-Za-z_]\w*", span))
    return [name for name in exported if name not in read]


def test_export_guard_finds_an_export_nothing_uses(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .mod import LIMIT, by_attribute, by_import, handed_on, in_readme, inside, shadowed, unused\n")
    (package / "mod.py").write_text(
        "LIMIT = 3\n"
        "def inside(): return LIMIT\n"
        "def unused(): return unused\n"
        "def shadowed(): pass\n"
        "def by_import(): pass\n"
        "def by_attribute(): pass\n"
        "def handed_on(): pass\n"
        "def in_readme(): pass\n"
        "def _helper(): return inside()\n"
    )
    script = tmp_path / "script.py"
    script.write_text(
        "import pkg as p\n"
        "from pkg.mod import by_import\n"
        "def shadowed(): pass\n"
        "shadowed(), by_import(), p.by_attribute(), unused()\n"
    )
    other = tmp_path / "other.py"
    other.write_text("import script\np = script.p\np.handed_on()\nscript.unused()\n")
    readme = "Call `in_readme(x)`, not unused or shadowed.\n"
    exported = ["LIMIT", "by_attribute", "by_import", "handed_on", "in_readme", "inside", "shadowed", "unused"]
    assert exports_without_readers(package, exported, [script, other], readme) == ["shadowed", "unused"]


def test_every_export_is_used_or_documented():
    consumers = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    readme = (ROOT / "README.md").read_text()
    assert exports_without_readers(Path(critcolor.__file__).parent, critcolor.__all__, consumers, readme) == []


C5 = critcolor.parse_graph6("Dhc")
W5 = critcolor.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] + [(v, 5) for v in range(5)])
K4_DB = critcolor.CriticalDb(4, (), (critcolor.to_graph6(critcolor.complete_graph(4)),))

# one small call of each public function that takes a budget
BUDGETED_CALLS = {
    "clique_number": lambda b: critcolor.clique_number(C5, budget=b),
    "is_k_colorable": lambda b: critcolor.is_k_colorable(C5, 3, budget=b),
    "chromatic_number": lambda b: critcolor.chromatic_number(C5, budget=b),
    "find_induced_subgraph": lambda b: critcolor.find_induced_subgraph(
        C5, critcolor.from_edges(3, [(0, 1), (1, 2)]), budget=b),
    "find_induced": lambda b: critcolor.find_induced(C5, critcolor.path(4), budget=b),
    "is_free": lambda b: critcolor.is_free(C5, [critcolor.clique(3), critcolor.path(4)], budget=b),
    "criticality_report": lambda b: critcolor.criticality_report(C5, 3, budget=b),
    # W5 = C5 plus a universal vertex: the greedy needs 4 colours, so every stage runs
    "certify_k_colorable": lambda b: critcolor.certify_k_colorable(W5, 3, K4_DB, budget=b),
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


def instance_dict_writers(package_dir: Path) -> list[str]:
    """The functions of the package, as ``module:qualified.name``, that can
    write an object's instance dict: they take ``__dict__`` or ``vars()``
    other than to read it (by ``.get`` or a subscript load), or call
    ``setattr`` or ``__setattr__`` other than on ``self`` outside a class
    named ``Graph``."""
    writers = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def owners(node):
            names = []
            while node in parent:
                node = parent[node]
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.insert(0, node.name)
            return names

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__dict__" or (
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars"):
                up = parent[node]
                writes = not (isinstance(up, ast.Subscript) and isinstance(up.ctx, ast.Load)
                              or isinstance(up, ast.Attribute) and up.attr == "get")
            elif isinstance(node, ast.Call) and "setattr" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", "").strip("_")):
                on_self = node.args and getattr(node.args[0], "id", None) == "self"
                writes = not on_self or owners(node)[:1] == ["Graph"]
            else:
                continue
            if writes:
                writers.add(f"{path.name}:{'.'.join(owners(node)) or '<module>'}")
    return sorted(writers)


def test_dict_guard_finds_every_way_to_write_an_instance_dict(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Graph:\n"
        "    def __hash__(self):\n"
        "        return self.__dict__.setdefault('_hash', 1)\n"
        "    def peek(self):\n"
        "        return self.__dict__.get('_hash'), self.__dict__['_hash'], vars(self)['n']\n"
        "    def poke(self):\n"
        "        object.__setattr__(self, 'n', 2)\n"
        "class Spec:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, '_hash', 3)\n"
        "def store(g):\n"
        "    g.__dict__['_x'] = 1\n"
        "def alias(g):\n"
        "    kept = g.__dict__\n"
        "    return kept\n"
        "def drop(g):\n"
        "    del vars(g)['_x']\n"
        "def poke(g):\n"
        "    setattr(g, 'x', 1)\n"
        "def outer(g):\n"
        "    def inner():\n"
        "        g.__dict__.update(x=1)\n"
        "    return inner\n"
    )
    assert instance_dict_writers(tmp_path) == [
        "mod.py:Graph.__hash__", "mod.py:Graph.poke", "mod.py:alias", "mod.py:drop",
        "mod.py:outer.inner", "mod.py:poke", "mod.py:store"]


def test_only_the_kept_values_write_a_graphs_dict():
    # a value kept on a graph must be exact and uncapped (see chroma._clique)
    assert instance_dict_writers(Path(critcolor.__file__).parent) == [
        "chroma.py:_clique", "chroma.py:_greedy", "chroma.py:is_k_colorable",
        "patterns.py:find_induced_subgraph"]


def graph6_error_catchers(package_dir: Path) -> list[str]:
    """The top-level functions of the package, as ``module:function`` (or
    ``module:<module>`` outside any function), with an ``except`` clause
    that names ``Graph6Error``: each one is a reader of graph6 lines."""
    catchers = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type is not None and "Graph6Error" in {
                    getattr(name, "id", None) or getattr(name, "attr", None) for name in ast.walk(node.type)
                }:
                    catchers.add(f"{path.name}:{owner}")
    return sorted(catchers)


def test_graph6_error_guard_finds_every_catch(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from . import graphs\n"
        "from .graphs import Graph6Error\n"
        "def read(lines):\n"
        "    for line in lines:\n"
        "        try:\n"
        "            graphs.parse_graph6(line)\n"
        "        except Graph6Error:\n"
        "            pass\n"
        "def tupled():\n"
        "    try:\n"
        "        pass\n"
        "    except (KeyError, graphs.Graph6Error) as exc:\n"
        "        raise ValueError from exc\n"
        "def broad():\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
        "try:\n"
        "    pass\n"
        "except Graph6Error:\n"
        "    pass\n"
    )
    assert graph6_error_catchers(tmp_path) == ["mod.py:<module>", "mod.py:read", "mod.py:tupled"]


def test_only_the_one_reader_catches_graph6_errors():
    # stdin batches and critdb member lines go through ingest_graph6_stream;
    # a second reader would bring back a second whitespace and error policy
    assert graph6_error_catchers(Path(critcolor.__file__).parent) == ["graphs.py:ingest_graph6_stream"]


def readers_of(package_dir: Path, name: str) -> list[str]:
    """The top-level functions and classes of the package, as
    ``module:name`` (or ``module:<module>`` outside any), that read
    ``name``, as a plain name or as an attribute: each one can call it."""
    readers = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            if any(name in (getattr(node, "id", None), getattr(node, "attr", None))
                   for node in ast.walk(top) if isinstance(getattr(node, "ctx", None), ast.Load)):
                readers.add(f"{path.name}:{owner}")
    return sorted(readers)


def test_reader_guard_finds_every_read_of_a_name(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from . import critical\n"
        "def _keeps_chi(g, v):\n"
        "    '''A _keeps_chi in a string is no read.'''\n"
        "    return True\n"
        "def _deletions(g):\n"
        "    return (_keeps_chi(g, v) for v in range(g.n))\n"
        "def alias():\n"
        "    f = critical._keeps_chi\n"
        "    return f\n"
        "def store(_keeps_chi):\n"
        "    _keeps_chi = 1\n"
        "class Walk:\n"
        "    def step(self, g):\n"
        "        return _keeps_chi(g, 0)\n"
        "_KEEP = _keeps_chi\n"
    )
    assert readers_of(tmp_path, "_keeps_chi") == [
        "mod.py:<module>", "mod.py:Walk", "mod.py:_deletions", "mod.py:alias"]


def test_only_the_deletion_walk_decides_whether_a_deletion_keeps_chi():
    # criticality reports, verdicts, critdb checks and certify's extraction
    # all go through _deletions; a second reader would be a second walk
    assert readers_of(Path(critcolor.__file__).parent, "_keeps_chi") == ["critical.py:_deletions"]


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
