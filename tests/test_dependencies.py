"""numpy is the package's only runtime dependency."""

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
