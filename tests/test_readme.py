"""The README's code blocks run as written against the package in src."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cosparse_grip import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
CAMPAIGN_COMMAND = re.search(r"^```sh\n(cosparse-grip .*)\n```", README, re.M).group(1)
CAMPAIGN_CONFIG = re.search(r"^```json\n(.*?)^```", README, re.M | re.S).group(1)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_campaign_runs(tmp_path, monkeypatch, capsys):
    # the sh line's command, in a directory holding the json block as its config
    argv = shlex.split(CAMPAIGN_COMMAND)[1:]
    config = argv[argv.index("--config") + 1]
    (tmp_path / config).write_text(CAMPAIGN_CONFIG)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert f"{argv[0]}: " in out
    assert "  violations = 0\n" in out
    assert (tmp_path / argv[argv.index("--out") + 1] / "results.csv").exists()
