"""Apply and read seconds of an XMark insert stream at three read cadences.

    PYTHONPATH=src python tests/harness/read_refresh.py [--scale 4] [--batches 48]
        [--seed 1] [--repeats 3]

Applies one stream of 64-statement insert batches to the seven XMark
views of Appendix A.6, a fresh engine per run, reading every view's
``content()`` (a read point) after every batch, after every 8th batch,
or at the end only.  Each cadence runs ``--repeats`` times, the
cadences taking turns, and its fastest run (apply plus read) is
printed as a markdown row: apply and read seconds, their sum, and
read-point p50/p95 ms.  Public calls only, so it also times an engine
that refreshes stored val/cont on every batch.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

from repro.maintenance.engine import MaintenanceEngine
from repro.updates.language import UpdateBatch
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document

BATCH = 64
CADENCES = (("every batch", 1), ("every 8th batch", 8), ("end only", None))


def run(scale: int, batches: int, seed: int, every) -> tuple:
    """``(apply s, read s, apply+read s, p50 ms, p95 ms, read points)``."""
    document = generate_document(scale=scale)
    engine = MaintenanceEngine(document)
    for name in sorted(VIEW_TEXTS):
        engine.register_view(view_pattern(name), name)
    stream = statement_stream(document, batches * BATCH, seed=seed, insert_ratio=1.0)
    apply_s, reads = 0.0, []
    gc.collect()
    gc.disable()  # collected between runs, never inside a timed call
    try:
        for index in range(batches):
            started = time.perf_counter()
            engine.apply_batch(UpdateBatch(stream[index * BATCH : (index + 1) * BATCH]))
            apply_s += time.perf_counter() - started
            if index == batches - 1 or (every is not None and (index + 1) % every == 0):
                started = time.perf_counter()
                for registered in engine.views.values():
                    registered.view.content()
                reads.append(time.perf_counter() - started)
    finally:
        gc.enable()
    ordered = sorted(reads)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return (apply_s, sum(reads), apply_s + sum(reads),
            1000.0 * statistics.median(ordered), 1000.0 * p95, len(reads))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=4)
    parser.add_argument("--batches", type=int, default=48)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    print("Read-time refresh, XMark %d, %d insert batches of %d, 7 views, seed %d, "
          "best of %d" % (args.scale, args.batches, BATCH, args.seed, args.repeats))
    print()
    run(args.scale, min(args.batches, 8), args.seed, None)  # warm-up, untimed
    best = {}
    for _ in range(args.repeats):
        for label, every in CADENCES:
            row = run(args.scale, args.batches, args.seed, every)
            best[label] = min(best.get(label, row), row, key=lambda row: row[2])
    print("| reads | apply s | read s | apply+read s | read p50 ms | read p95 ms | read points |")
    print("|---|---|---|---|---|---|---|")
    for label, _every in CADENCES:
        print("| %s | %.3f | %.3f | %.3f | %.2f | %.2f | %d |" % ((label,) + best[label]))


if __name__ == "__main__":
    main()
