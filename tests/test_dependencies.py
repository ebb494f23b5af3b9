"""numpy is the package's only runtime dependency, and each module uses
what it imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# reports the site-packages modules that importing the package loads, and
# which test oracles are loaded at all
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
    "oracles": sorted(m for m in ("scipy", "hypothesis", "pytest", "cvxpy") if m in sys.modules),
}))
"""


def test_import_loads_no_third_party_module_but_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert Path(report["package"]).resolve().is_relative_to(ROOT / "src")
    assert report["third_party"] == ["numpy"]
    assert report["oracles"] == []


def _unused_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports that its code never
    reads and its __all__ does not re-export."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


def test_unused_import_guard_sees_a_leftover():
    assert _unused_imports("import json\nimport math\n\nx = math.pi\n") == ["json (line 1)"]
    assert _unused_imports("from .a import f\n__all__ = ['f']\n") == []


def test_modules_use_every_import():
    for path in sorted((ROOT / "src" / "cosparse_grip").glob("*.py")):
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name
