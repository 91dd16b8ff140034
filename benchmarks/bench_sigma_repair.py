"""σ-flip repair gate: in-place repair vs whole-view recompute fallback.

Registers eight Q3-variant σ views (one per increase amount the
generator emits, so every amount is σ-watched) and drives a mixed-churn
stream -- σ-value rewrites, flip round-trips, dirty pairs, skewed
background churn (:func:`repro.workloads.churn.churn_batches`) -- twice
from the same starting document:

* once on the default engine, whose σ-flip repair synthesizes bounded
  Δ± for the flipped candidates, and
* once with ``sigma_repair=False``, restoring the historical
  whole-view recompute fallback on every flip-bearing batch.

The repair side must

* leave every extent **byte-identical** to the fallback side (and to
  fresh evaluation) after every batch,
* cut the *fallback rate* -- fallback-bearing batches over
  flip-bearing batches -- from ~1.0 to ``MAX_FALLBACK_RATE``, and
* spend at least ``MIN_SPEEDUP``× less *propagation* time (the
  maintenance phases, including fallback recompute time; document
  application is statement-identical on both sides and excluded): the
  recompute fallback pays O(document × views) per flip-bearing batch,
  the repair pays O(flipped candidates).  End-to-end wall clock is
  reported alongside.

Run directly (exit 1 on failure) or via
``PYTHONPATH=../src python -m pytest bench_sigma_repair.py``.
"""

from __future__ import annotations

import time

from repro.maintenance.engine import MaintenanceEngine
from repro.workloads.churn import churn_batches
from repro.workloads.queries import view_pattern
from repro.workloads.xmark import generate_document

SCALE = 4
#: every increase amount the generator emits; one σ view each.
SIGMA_VALUES = ("1.50", "3.00", "4.50", "6.00", "7.50", "9.00", "12.00", "15.00")
BATCHES = 12
BATCH_SIZE = 4
SEED = 13
MIN_SPEEDUP = 3.0
MAX_FALLBACK_RATE = 0.05
REPEATS = 3


def _sigma_views():
    """Eight Q3 variants, σ-filtering one increase amount each."""
    views = {}
    for amount in SIGMA_VALUES:
        pattern = view_pattern("Q3")
        for node in pattern.nodes():
            if node.value_pred is not None:
                node.value_pred = amount
        views["Q3_%s" % amount.replace(".", "_")] = pattern
    return views


def _run(sigma_repair: bool, batches):
    document = generate_document(scale=SCALE)
    engine = MaintenanceEngine(document, sigma_repair=sigma_repair)
    registered = {
        name: engine.register_view(pattern, name)
        for name, pattern in _sigma_views().items()
    }
    wall = 0.0
    propagation = 0.0
    fallback_batches = []
    flip_batches = []
    for batch in batches:
        started = time.perf_counter()
        report = engine.apply_batch(list(batch))
        wall += time.perf_counter() - started
        propagation += report.propagation_seconds()
        fallback_batches.append(bool(report.fallbacks))
        flip_batches.append(
            bool(report.repairs)
            or any(
                entry.get("reason") == "predicate_flip"
                for entry in report.fallbacks.values()
            )
        )
    return document, registered, propagation, wall, fallback_batches, flip_batches


def run_gate() -> dict:
    batches = churn_batches(
        generate_document(scale=SCALE),
        BATCHES,
        batch_size=BATCH_SIZE,
        seed=SEED,
        sigma_values=SIGMA_VALUES,
    )
    repair_wall = forced_wall = float("inf")
    repair_prop = forced_prop = float("inf")
    row: dict = {}
    for _ in range(REPEATS):
        repair = _run(True, batches)
        forced = _run(False, batches)
        repair_doc, repair_views, prop_r, wall_r, fell_r, _flips_r = repair
        _forced_doc, forced_views, prop_f, wall_f, fell_f, flips_f = forced
        for name in repair_views:
            if (
                repair_views[name].view.content()
                != forced_views[name].view.content()
            ):
                raise AssertionError("view %s extents diverge" % name)
            if not repair_views[name].view.equals_fresh_evaluation(repair_doc):
                raise AssertionError("repaired view %s != fresh evaluation" % name)
        # The forced run defines which batches carry σ flips; its
        # fallback rate over them is ~1.0 by construction.
        flip_bearing = [i for i, flipped in enumerate(flips_f) if flipped]
        if not flip_bearing:
            raise AssertionError("churn stream produced no flip-bearing batches")
        forced_rate = sum(fell_f[i] for i in flip_bearing) / len(flip_bearing)
        repair_rate = sum(fell_r[i] for i in flip_bearing) / len(flip_bearing)
        repair_wall = min(repair_wall, wall_r)
        forced_wall = min(forced_wall, wall_f)
        repair_prop = min(repair_prop, prop_r)
        forced_prop = min(forced_prop, prop_f)
        row = {
            "views": len(repair_views),
            "batches": BATCHES,
            "flip_bearing_batches": len(flip_bearing),
            "forced_fallback_rate": round(forced_rate, 3),
            "repair_fallback_rate": round(repair_rate, 3),
            "rate_ceiling": MAX_FALLBACK_RATE,
        }
    row.update(
        {
            "repair_propagation_s": round(repair_prop, 6),
            "forced_propagation_s": round(forced_prop, 6),
            "speedup": round(forced_prop / repair_prop, 3),
            "repair_wall_s": round(repair_wall, 6),
            "forced_wall_s": round(forced_wall, 6),
            "wall_speedup": round(forced_wall / repair_wall, 3),
            "floor": MIN_SPEEDUP,
        }
    )
    return row


def _passed(row: dict) -> bool:
    return (
        row["speedup"] >= MIN_SPEEDUP
        and row["repair_fallback_rate"] <= MAX_FALLBACK_RATE
    )


def _summary(row: dict) -> str:
    return (
        "σ-flip repair vs recompute fallback, %d σ views, %d churn batches "
        "(%d flip-bearing):\n"
        "  propagation   %8.2fms vs %8.2fms -> %5.2fx (floor %.1fx)\n"
        "  wall clock    %8.2fms vs %8.2fms -> %5.2fx (includes identical "
        "document application)\n"
        "  fallback rate %8.3f   vs %8.3f   (ceiling %.2f, over flip-bearing "
        "batches)"
        % (
            row["views"],
            row["batches"],
            row["flip_bearing_batches"],
            row["repair_propagation_s"] * 1000,
            row["forced_propagation_s"] * 1000,
            row["speedup"],
            row["floor"],
            row["repair_wall_s"] * 1000,
            row["forced_wall_s"] * 1000,
            row["wall_speedup"],
            row["repair_fallback_rate"],
            row["forced_fallback_rate"],
            row["rate_ceiling"],
        )
    )


def test_sigma_repair_speedup(save_table):
    row = run_gate()
    save_table("sigma_repair.txt", _summary(row))
    assert _passed(row), row


def main() -> int:
    row = run_gate()
    print(_summary(row))
    print("-> %s" % ("PASS" if _passed(row) else "FAIL"))
    return 0 if _passed(row) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
