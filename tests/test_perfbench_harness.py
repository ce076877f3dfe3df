"""The benchmark harness's own suite, run from the main one.

``perfbench/tests`` reaches into ``trq`` by module and attribute name, so
deleting or renaming something it reads breaks it without breaking any
test under ``tests/``. It cannot simply join ``testpaths``: both suites
import helpers with ``from conftest import``, and the two ``conftest``
modules clash in one session. It runs here in a child process instead,
and a second child process checks which traced functions are missing.
"""

from __future__ import annotations

import json
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


# perfbench targets that name a function trq no longer has. A deletion or
# rename that removes one more traced function must update this list, so
# the benchmark's per-layer metric that reads it is retargeted on purpose.
ABSENT_TARGETS = [
    "trq.store.GraphBuilder.add",
    "trq.embedding.margin_loss_and_grads",
    "trq.embedding.EmbeddingSet.normalize",
    "trq.embedding.EmbeddingSet.type_vector",
    "trq.recommend.evaluate_bgp",
    "trq.recommend.edit_distance",
    "trq.scoring.instantiate_ids",
    "trq.recommend.score_solution",
    "trq.recommend.rank",
]


def test_perfbench_absent_targets_are_pinned():
    script = "import json, layers, tracer; t = tracer.Tracer(); t.install(layers.targets()); print(json.dumps(t.absent))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout) == ABSENT_TARGETS
