"""Smoke run of every script in ``demos/``.

Each demo runs in a fresh interpreter from a copy in ``tmp_path``, so
the ``demo_out/`` directory it writes next to itself lands there and
not in the source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import paprbound

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    package_root = str(Path(paprbound.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
