"""numpy is the package's only runtime dependency, and each module uses
what it imports."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import cosparse_grip as cg

ROOT = Path(__file__).resolve().parents[1]

# reports the site-packages modules that importing the package loads, any
# `concurrent` module it loads, and which test oracles are loaded at all
PROBE = """
import json, sys, sysconfig
site = {sysconfig.get_paths()[key] for key in ("purelib", "platlib")}
before = set(sys.modules)
import cosparse_grip
loaded = {name: getattr(sys.modules[name], "__file__", None) or ""
          for name in set(sys.modules) - before}
print(json.dumps({
    "package": cosparse_grip.__file__,
    "third_party": sorted({name.partition(".")[0] for name, path in loaded.items()
                           if any(path.startswith(s) for s in site)}),
    "concurrent": sorted(name for name in loaded if name.partition(".")[0] == "concurrent"),
    "oracles": sorted(m for m in ("scipy", "hypothesis", "pytest", "cvxpy") if m in sys.modules),
}))
"""


def test_import_loads_no_third_party_module_but_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, encoding="utf-8", timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert Path(report["package"]).resolve().is_relative_to(ROOT / "src")
    assert report["third_party"] == ["numpy"]
    assert report["concurrent"] == []  # campaigns run on the calling thread
    assert report["oracles"] == []


def _unused_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports that its code never
    reads and its __all__ does not re-export. A star import binds no name
    of its own: it re-exports its module's __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


def test_unused_import_guard_sees_a_leftover():
    assert _unused_imports("import json\nimport math\n\nx = math.pi\n") == ["json (line 1)"]
    assert _unused_imports("from .a import f\n__all__ = ['f']\n") == []
    assert _unused_imports("from . import a\nfrom .a import *\n__all__ = [*a.__all__]\n") == []
    assert _unused_imports("from . import a, b\nfrom .a import *\n__all__ = [*a.__all__]\n") == ["b (line 1)"]


def test_modules_use_every_import():
    for path in sorted((ROOT / "src" / "cosparse_grip").glob("*.py")):
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def _star_imports(source: str) -> list[str]:
    """The modules a module star-imports, as written (`.x` for relative)."""
    return [
        "." * node.level + (node.module or "")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)
    ]


def test_star_imports_only_republish_layers_in_the_package_init():
    # a star import hides which names a module binds, so only __init__.py
    # may use one, to republish a layer's __all__
    for path in sorted((ROOT / "src" / "cosparse_grip").glob("*.py")):
        stars = _star_imports(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            assert stars and all(s.startswith(".") and s.count(".") == 1 for s in stars), stars
        else:
            assert stars == [], path.name


def test_package_exports_each_layer_all_once():
    layers = [importlib.import_module(f"cosparse_grip.{name}")
              for name in ("model", "simplex", "grip", "solvers", "verify", "campaign")]
    assert cg.__all__ == ["__version__"] + [name for layer in layers for name in layer.__all__]
    assert len(set(cg.__all__)) == len(cg.__all__)  # no star import shadows another
    for layer in layers:
        for name in layer.__all__:
            assert getattr(cg, name) is getattr(layer, name), name
            # the name is public where it is defined, not re-exported from
            # another layer
            obj = getattr(layer, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == layer.__name__, name


def _package_imports(source: str) -> set[str]:
    """The package modules a module names in `from .x import` statements."""
    return {node.module for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_package_import_graph():
    graph = {path.stem: _package_imports(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "cosparse_grip").glob("*.py"))
             if path.stem != "__init__"}
    assert graph == {
        "model": set(),
        "simplex": set(),
        "grip": {"model"},
        "solvers": {"model", "simplex"},
        "verify": {"grip", "model"},
        "campaign": {"grip", "model", "solvers", "verify"},
        "cli": {"campaign"},
    }



def _own_names(node: ast.stmt) -> set[str]:
    """The private names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _named_in(node: ast.AST) -> set[str]:
    """Every name a statement reads, as a variable, an attribute or an
    imported name."""
    named = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            named.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            named.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            named.update(alias.name for alias in sub.names)
    return named


def _unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no code
    of the package names outside their own definition: leftovers."""
    defined, named = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = _own_names(node)
            defined.update(((module, name), node.lineno) for name in own)
            named |= _named_in(node) - own
    return sorted(f"{module}.{name} (line {line})" for (module, name), line in defined.items()
                  if name not in named)


def test_unreferenced_private_guard_sees_a_leftover():
    a = (
        "_USED = 1\n"
        "_SPARE = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n"
        "class _Left:\n    pass\n"
        "def _kept():\n    return 0\n"
        "__all__ = ['f']\n"
    )
    b = "from .a import _kept\n"
    assert _unreferenced_privates({"a": a, "b": b}) == [
        "a._Left (line 5)", "a._SPARE (line 2)", "a._recursive (line 3)",
    ]


def test_modules_name_every_private_definition():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "cosparse_grip").glob("*.py"))}
    assert _unreferenced_privates(sources) == []
