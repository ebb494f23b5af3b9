"""The README's code blocks run as written against the package in src."""

import hashlib
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
# sha256 of the README campaign's files. They fix the writers' bytes on
# every Python version; they also fix the campaign's numbers, so a moved
# digest is either a writer fault or a change of numerics to record.
CAMPAIGN_DIGESTS = {
    "results.csv": "6c09763f8f673d89800283bbff46af39b10c8985c5f59a8b8e0dc2019168b2eb",
    "results.jsonl": "d643425c2dd7a51013d15b6aac44fd58928b9a5a557e47ce18eaddac4591a1c4",
}


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
    out_dir = tmp_path / argv[argv.index("--out") + 1]
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in CAMPAIGN_DIGESTS}
    assert digests == CAMPAIGN_DIGESTS
