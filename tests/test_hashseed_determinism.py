"""Hash-seed determinism: extents are PYTHONHASHSEED-independent.

The repro-lint determinism rules guard this statically; here we close
the loop dynamically.  A child process (so the seed actually takes --
the parent interpreter's hash seed is fixed at startup) builds an XMark
document, applies the same statement stream once serially and once
through a resident ShardSession (forked replica workers), and prints a
canonical digest per mode.  Running the child under two different
``PYTHONHASHSEED`` values must produce one identical digest across all
four runs: serial == session within a seed (the shard contract) and
seed A == seed B (no hash-order dependence anywhere in the pipeline).
"""

import multiprocessing
import os
import subprocess
import sys

import pytest

_CHILD_SCRIPT = r"""
import hashlib
import sys

from repro.maintenance.engine import MaintenanceEngine
from repro.updates.language import UpdateBatch
from repro.views.view import row_sort_key
from repro.workloads.queries import view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document

VIEWS = ("Q1", "Q3", "Q6")


def build():
    document = generate_document(scale=1)
    engine = MaintenanceEngine(document)
    views = {name: engine.register_view(view_pattern(name), name) for name in VIEWS}
    stream = statement_stream(document, 36, seed=13, insert_ratio=0.7)
    batches = [stream[i : i + 12] for i in range(0, len(stream), 12)]
    return engine, views, batches


def digest(views):
    hasher = hashlib.sha256()
    for name in VIEWS:
        hasher.update(name.encode("ascii"))
        for row, count in views[name].view.content():
            hasher.update(repr((row_sort_key(row), count)).encode("utf-8"))
    return hasher.hexdigest()


engine, views, batches = build()
for batch in batches:
    engine.apply_batch(UpdateBatch(batch))
print("serial", digest(views))

engine, views, batches = build()
with engine.session(workers=2) as session:
    for batch in batches:
        session.apply_batch(UpdateBatch(batch))
print("session", digest(views))
"""


def _run_child(hashseed: str):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    digests = dict(line.split() for line in result.stdout.splitlines() if line)
    assert set(digests) == {"serial", "session"}, result.stdout
    return digests


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="session workers need fork",
)
def test_extents_identical_across_hash_seeds_and_modes():
    seed_a = _run_child("0")
    seed_b = _run_child("4242")
    # serial == session within each seed: the shard/session contract.
    assert seed_a["serial"] == seed_a["session"]
    assert seed_b["serial"] == seed_b["session"]
    # seed A == seed B: nothing in the pipeline orders by string hash.
    assert seed_a["serial"] == seed_b["serial"]
