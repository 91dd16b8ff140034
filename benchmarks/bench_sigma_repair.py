"""σ-flip repair gate: in-place repair vs recomputing the repaired view.

Registers eight Q3-variant σ views (one per increase amount the
generator emits, so every amount is σ-watched) and drives a mixed-churn
stream -- σ-value rewrites, flip round-trips, dirty pairs, skewed
background churn (:func:`repro.workloads.churn.churn_batches`) --
through the default engine, once per lattice strategy: the default
(``"leaves"``, no lattice) and the paper's ``"snowcaps"``, the only
strategy whose repair also runs ``SnowcapLattice.apply_flip_repair``.
A batch is *flip-bearing* when its report names a σ-flip repair
(``report.repairs``).  For every view a flip-bearing batch repairs, the
gate also times :func:`repro.baselines.recompute.full_recompute` of
that view over the updated document, rebuilding what the engine keeps:
the extent, plus the snowcap lattice on the snowcaps row.  That is
what a whole-view recompute fallback would have paid in its place.

On each strategy's row, the repair side must

* leave every extent **byte-identical** to the recomputed one (and to
  fresh evaluation) after every batch,
* keep the *fallback rate* -- fallback-bearing batches over
  flip-bearing batches -- at or under ``MAX_FALLBACK_RATE``, and
* spend at least ``MIN_SPEEDUP``× less time than the recompute: the
  repaired views' own maintenance seconds (their phases, target
  resolution excluded) against the summed recompute seconds of the
  same views.  The recompute pays O(document) per repaired view, the
  repair O(flipped candidates).

Run directly (exit 1 on failure) or via
``PYTHONPATH=../src python -m pytest bench_sigma_repair.py``.  When
``GITHUB_STEP_SUMMARY`` is set (GitHub Actions), the summary table is
appended there as markdown.
"""

from __future__ import annotations

import os

from repro.baselines.recompute import full_recompute
from repro.maintenance.engine import MaintenanceEngine
from repro.views.lattice import DEFAULT_STRATEGY, SnowcapLattice
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
#: one gate row per lattice strategy, the engine's default first.
STRATEGIES = (DEFAULT_STRATEGY, "snowcaps")


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


def _run(batches, strategy):
    """One pass over the stream: ``(repair s, recompute s, flip-bearing
    batches, fallback-bearing flip-bearing batches, views)``."""
    document = generate_document(scale=SCALE)
    engine = MaintenanceEngine(document)
    registered = {
        name: engine.register_view(pattern, name, strategy=strategy)
        for name, pattern in _sigma_views().items()
    }
    repair = recompute = 0.0
    flip_bearing = fell_back = 0
    for batch in batches:
        report = engine.apply_batch(list(batch))
        for name, view in registered.items():
            if not view.view.equals_fresh_evaluation(document):
                raise AssertionError("view %s != fresh evaluation" % name)
        if not report.repairs:
            continue
        flip_bearing += 1
        fell_back += bool(report.fallbacks)
        for name in report.repairs:
            phases = report.view_reports[name].phases
            repair += phases.total() - phases.find_target_nodes
            pattern = registered[name].pattern
            lattice = SnowcapLattice(pattern, strategy=strategy)
            fresh, seconds = full_recompute(pattern, document, lattice)
            recompute += seconds
            if fresh.content() != registered[name].view.content():
                raise AssertionError("repaired view %s != its recompute" % name)
    return repair, recompute, flip_bearing, fell_back, len(registered)


def run_gate() -> list:
    """One row per lattice strategy in ``STRATEGIES``."""
    batches = churn_batches(
        generate_document(scale=SCALE),
        BATCHES,
        batch_size=BATCH_SIZE,
        seed=SEED,
        sigma_values=SIGMA_VALUES,
    )
    return [_gate_row(batches, strategy) for strategy in STRATEGIES]


def _gate_row(batches, strategy: str) -> dict:
    repair = recompute = float("inf")
    for _ in range(REPEATS):
        repair_s, recompute_s, flip_bearing, fell_back, views = _run(batches, strategy)
        repair = min(repair, repair_s)
        recompute = min(recompute, recompute_s)
    if not flip_bearing:
        raise AssertionError("churn stream produced no flip-bearing batches")
    return {
        "strategy": strategy,
        "views": views,
        "batches": BATCHES,
        "flip_bearing_batches": flip_bearing,
        "fallback_rate": round(fell_back / flip_bearing, 3),
        "rate_ceiling": MAX_FALLBACK_RATE,
        "repair_s": round(repair, 6),
        "recompute_s": round(recompute, 6),
        "speedup": round(recompute / repair, 3),
        "floor": MIN_SPEEDUP,
    }


def _passed(row: dict) -> bool:
    return row["speedup"] >= MIN_SPEEDUP and row["fallback_rate"] <= MAX_FALLBACK_RATE


def _summary(rows: list) -> str:
    first = rows[0]
    lines = [
        "σ-flip repair vs recomputing each repaired view, %d σ views, %d churn "
        "batches (%d flip-bearing):"
        % (first["views"], first["batches"], first["flip_bearing_batches"])
    ]
    for row in rows:
        lines.append(
            "  %-8s repaired views %8.2fms vs recompute %8.2fms -> %5.2fx "
            "(floor %.1fx), fallback rate %.3f (ceiling %.2f) %s"
            % (
                row["strategy"],
                row["repair_s"] * 1000,
                row["recompute_s"] * 1000,
                row["speedup"],
                row["floor"],
                row["fallback_rate"],
                row["rate_ceiling"],
                "PASS" if _passed(row) else "FAIL",
            )
        )
    return "\n".join(lines)


def _write_step_summary(rows: list) -> None:
    """Append the gate table to the GitHub Actions job summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### σ-flip repair gate",
        "",
        "| lattice | repaired views vs their recompute | fallback rate | result |",
        "| --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            "| %s | %.2fx (%.2f / %.2f ms; >= %.1fx) | %.3f over %d flip-bearing "
            "batches (<= %.2f) | %s |"
            % (
                row["strategy"],
                row["speedup"],
                row["repair_s"] * 1e3,
                row["recompute_s"] * 1e3,
                row["floor"],
                row["fallback_rate"],
                row["flip_bearing_batches"],
                row["rate_ceiling"],
                "PASS" if _passed(row) else "FAIL",
            )
        )
    lines.append("")
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def test_sigma_repair_speedup(save_table):
    rows = run_gate()
    save_table("sigma_repair.txt", _summary(rows))
    assert all(_passed(row) for row in rows), rows


def main() -> int:
    rows = run_gate()
    passed = all(_passed(row) for row in rows)
    print(_summary(rows))
    _write_step_summary(rows)
    print("-> %s" % ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
