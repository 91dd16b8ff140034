"""Subprocess entry point: run the durability workload, maybe die.

Usage: ``python crash_child.py <db_path> <mode>`` with ``PYTHONPATH``
carrying both ``src`` and ``tests``.  When ``REPRO_CRASH_POINT`` is in
the environment the storage layer SIGKILLs this process at the named
point; otherwise the workload completes and prints ``completed``.
"""

import sys


def main() -> None:
    db_path, mode = sys.argv[1], sys.argv[2]
    from harness.crashkit import CHECKPOINT_BATCHES, run_workload
    from repro.storage import sqlite

    sqlite.CHECKPOINT_BATCHES = CHECKPOINT_BATCHES
    run_workload(db_path, mode)
    print("completed")


if __name__ == "__main__":
    main()
