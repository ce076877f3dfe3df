"""The benchmark harness's own suite, run from the main one.

``perfbench/tests`` reaches into ``trq`` by module and attribute name, so
deleting or renaming something it reads breaks it without breaking any
test under ``tests/``. It cannot simply join ``testpaths``: both suites
import helpers with ``from conftest import``, and the two ``conftest``
modules clash in one session. It runs here in a child process instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_suite_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
