"""Rebalance gate: adaptive vs frozen ShardSession under drift, live.

Both sessions fork with LPT weights profiled on a short people-only
warm-up stream -- the honest fork-time knowledge.  The gated stream
then rotates its hot Appendix-A update family through three drift
phases (auctions -> regions -> auctions, the pure-rotation limit of the
lifecycle 95/4/1 shape) over four tenants of the seven XMark views.
At fork time the auction views are near-idle, so their profiled weights
are tiny against the people-view bucket gaps and LPT piles them onto
one party: when the auction family goes hot, the frozen session's
makespan degrades toward the single-party time while the other parties
idle.  The adaptive session (``rebalance=`` enabled) sees the same fork
but migrates view ownership off the hot party within a few batches.

Both sessions run at ``workers = usable CPUs``; a host with fewer than
two usable CPUs has nothing to balance across, so the gate skips there
and prints why.  Every number is measured on the host that reports it.
The gate requires

* **byte-identical extents** -- after the stream, frozen and adaptive
  extents both equal the serial run's and match fresh re-evaluation,
  on every repeat;
* **>= MIN_SPEEDUP x propagation for adaptive over frozen** -- the
  ratio of the two sessions' summed per-batch propagation seconds over
  the drifted stream;
* **post-migration imbalance high-water <= MAX_HIGH_WATER** -- after
  each gated batch, the adaptive policy's smoothed imbalance ratio
  (its cost model's per-view loads grouped by the live assignment,
  measured after that batch's migrations) must stay at or under the
  ceiling from the first batch after the first migration to the end
  of the stream -- holding balance under sustained drift, not merely
  ending on a good batch.  The frozen session's per-batch observed
  ratio is recorded beside it, not gated.

Run directly (exit 1 on failure) or via
``PYTHONPATH=../src python -m pytest bench_rebalance.py``.
"""

from __future__ import annotations

import gc
import os

from repro.maintenance.engine import MaintenanceEngine
from repro.sharding.planner import imbalance_ratio
from repro.sharding.rebalance import RebalancePolicy
from repro.updates.language import UpdateBatch
from repro.workloads.drift import drift_batches, drift_phase_families
from repro.workloads.queries import VIEW_TEXTS, view_pattern
from repro.workloads.xmark import generate_document

#: document scale: large enough that per-batch view maintenance (which
#: scales with extent size) dominates the scale-invariant transport and
#: migration costs -- the regime the speedup ratio is meaningful in.
SCALE = 48
#: people-only warm-up batches that supply the fork-time LPT weights.
PROFILE_BATCHES = 4
#: gated drift stream: PHASES equal phases, hot family rotating
#: auctions -> regions -> auctions.  Phases are long relative to the
#: migration protocol's cost (moving a hot trio is ~10^2 ms of real
#: pull/pickle/install work) so a rebalanced assignment has room to
#: amortize -- the regime drifting workloads actually live in.
GATE_BATCHES = 72
BATCH_SIZE = 96
PHASES = 3
#: tenants x 7 XMark views = 28 registered views (>= 16 per the gate).
#: Four tenants keep every single view's cost well under the ceiling
#: fraction of a worker's mean load, so balance is always *achievable*
#: and the high-water criterion judges the policy, not the workload.
TENANTS = 4
MIN_SPEEDUP = 1.3
MAX_HIGH_WATER = 1.25
#: timing repeats; extents are asserted on every repeat, the speedup is
#: the best observed (as in the sibling gates' min-of-N).
REPEATS = 2
#: profiled weights below this fraction of the heaviest view's cost are
#: floored to zero: they are inside the profile's noise floor, so the
#: fork-time planner has no information to spread them -- and LPT parks
#: indistinguishable views together, which is exactly the stranding the
#: adaptive session exists to undo.  Both sessions fork from the same
#: floored weights.
FLOOR_FRACTION = 0.12
VIEW_NAMES = tuple(sorted(VIEW_TEXTS))
#: one party per usable CPU; with one CPU there is nothing to balance.
SKIPPED = "host has %d usable CPU(s); rebalancing needs at least 2"


def _policy() -> RebalancePolicy:
    """Tuned for the gate's drift rate: the stranding signal is a ratio
    above 2 (far over the 1.2 trigger) so one-batch patience is enough,
    and a heavily smoothed model (alpha 0.3) plus the high trigger
    supply the anti-thrash hysteresis, so the cooldown can drop to
    zero: every over-trigger batch is repaired in the *same* batch,
    which keeps the audited post-decision imbalance ratio bounded by
    the trigger (no drift window where repair is blocked)."""
    return RebalancePolicy(
        trigger_ratio=1.2,
        target_ratio=1.1,
        patience=1,
        cooldown=0,
        budget=6,
        alpha=0.3,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _build_engine():
    document = generate_document(scale=SCALE)
    engine = MaintenanceEngine(document)
    registered = {}
    for tenant in range(TENANTS):
        for name in VIEW_NAMES:
            view_name = name if tenant == 0 else "%s_t%d" % (name, tenant)
            registered[view_name] = engine.register_view(
                view_pattern(name), view_name
            )
    return document, engine, registered


def _streams():
    """(profile batches, gated drift batches) -- one statement stream.

    The profile segment is people-family traffic only; the gate segment
    rotates families that were cold while the profile ran, so the fork
    weights mis-rank every gated phase.
    """
    document = generate_document(scale=SCALE)
    people, auctions, regions = drift_phase_families()
    profile_rows = drift_batches(
        document,
        PROFILE_BATCHES,
        batch_size=BATCH_SIZE,
        seed=5,
        insert_ratio=1.0,
        families=[people],
        hot_share=1.0,
        warm_share=0.0,
    )
    gate_rows = drift_batches(
        document,
        GATE_BATCHES,
        batch_size=BATCH_SIZE,
        seed=11,
        insert_ratio=0.75,
        families=[auctions, regions, auctions],
        hot_share=1.0,
        warm_share=0.0,
    )
    return (
        [UpdateBatch(rows) for rows in profile_rows],
        [UpdateBatch(rows) for rows in gate_rows],
    )


def _run_serial(batches):
    """Serial baseline: extents + the per-batch per-view timing matrix.

    The collector is paused while batches run: a generational sweep
    landing inside one view's phase timer would fake a 100ms-class
    hot view and poison the fork weights.
    """
    document, engine, registered = _build_engine()
    gc.collect()
    timing_rows = []
    gc.disable()
    try:
        for batch in batches:
            report = engine.apply_batch(batch)
            timing_rows.append(
                {
                    name: view_report.phases.total()
                    - view_report.phases.find_target_nodes
                    for name, view_report in report.view_reports.items()
                }
            )
    finally:
        gc.enable()
        gc.collect()
    return document, registered, timing_rows


def _smoothed_imbalance(session) -> float:
    """The adaptive policy's imbalance ratio: its cost model's per-view
    loads grouped by the session's live assignment."""
    owned = [[] for _ in range(session.workers)]
    for name, party in session.assignment.items():
        owned[party].append(name)
    return imbalance_ratio([session.rebalance.model.load_of(names) for names in owned])


def _run_session(batches, workers, weights, rebalance=None):
    """One session over the stream: its document, views, parties, and
    per batch the propagation seconds, shard round and (adaptive only)
    the smoothed imbalance ratio after that batch's migrations."""
    document, engine, registered = _build_engine()
    gc.collect()
    session = engine.session(workers=workers, weights=weights, rebalance=rebalance)
    parties = session.workers
    propagations = []
    rounds = []
    smoothed = []
    gc.disable()
    try:
        for batch in batches:
            report = session.apply_batch(batch)
            propagations.append(report.propagation_seconds())
            rounds.append(report.shard_rounds[0])
            if rebalance is not None:
                smoothed.append(_smoothed_imbalance(session))
    finally:
        gc.enable()
        gc.collect()
        session.close()
    return document, registered, parties, propagations, rounds, smoothed


def _assert_identical(serial_views, session_views, session_doc):
    for name in serial_views:
        if serial_views[name].view.content() != session_views[name].view.content():
            raise AssertionError("view %s extents diverge under sharding" % name)
    for name in (VIEW_NAMES[0], VIEW_NAMES[-1]):
        if not session_views[name].view.equals_fresh_evaluation(session_doc):
            raise AssertionError("sharded view %s != fresh evaluation" % name)


def _profile_weights(timing_rows):
    """Per-view LPT weights as measured over the profile segment -- all
    either session ever learns before the drift begins.  Views under
    ``FLOOR_FRACTION`` of the heaviest view's cost floor to zero (see
    the constant's note); the relative floor keeps the split
    machine-speed independent."""
    weights = {}
    for row in timing_rows:
        for name, seconds in row.items():
            weights[name] = weights.get(name, 0.0) + seconds
    floor = FLOOR_FRACTION * max(weights.values())
    return {
        name: (seconds if seconds >= floor else 0.0)
        for name, seconds in weights.items()
    }


def _post_migration_high_water(rounds, smoothed) -> float:
    """Max smoothed ratio over the gated batches, from the first batch
    after the first live migration on (the last batch's ratio if
    nothing ever moved)."""
    moved = [index for index, entry in enumerate(rounds) if entry["migrations"]]
    start = max(PROFILE_BATCHES, moved[0] + 1) if moved else len(smoothed) - 1
    return max(smoothed[start:] or smoothed[-1:])


def run_gate(workers: int) -> dict:
    profile, gate = _streams()
    stream = profile + gate

    serial_doc, serial_views, timing_rows = _run_serial(stream)
    weights = _profile_weights(timing_rows[:PROFILE_BATCHES])

    best = None
    for _ in range(REPEATS):
        frozen_doc, frozen_views, parties, frozen_props, frozen_rounds, _ = (
            _run_session(stream, workers, weights)
        )
        (
            adaptive_doc,
            adaptive_views,
            _parties,
            adaptive_props,
            adaptive_rounds,
            smoothed,
        ) = _run_session(stream, workers, weights, rebalance=_policy())
        # Hard invariant, machine-independent: both sessions == serial.
        _assert_identical(serial_views, frozen_views, frozen_doc)
        _assert_identical(serial_views, adaptive_views, adaptive_doc)

        frozen_prop = sum(frozen_props[PROFILE_BATCHES:])
        adaptive_prop = sum(adaptive_props[PROFILE_BATCHES:])
        gated_rounds = adaptive_rounds[PROFILE_BATCHES:]
        live_migrations = sum(len(entry["migrations"]) for entry in gated_rounds)
        migration_s = sum(entry["migration_s"] for entry in gated_rounds)
        candidate = {
            "statements": GATE_BATCHES * BATCH_SIZE,
            "batches": GATE_BATCHES,
            "phases": PHASES,
            "views": len(serial_views),
            "workers": parties,
            "frozen_propagation_s": round(frozen_prop, 6),
            "adaptive_propagation_s": round(adaptive_prop, 6),
            "live_migrations": live_migrations,
            "migration_s": round(migration_s, 6),
            "migration_s_per_move": round(migration_s / max(1, live_migrations), 6),
            "speedup": round(frozen_prop / adaptive_prop, 3),
            "floor": MIN_SPEEDUP,
            "imbalance_high_water": round(
                _post_migration_high_water(adaptive_rounds, smoothed), 4
            ),
            "frozen_high_water": round(
                max(
                    shard_round["imbalance_ratio"]
                    for shard_round in frozen_rounds[PROFILE_BATCHES:]
                ),
                4,
            ),
            "high_water_ceiling": MAX_HIGH_WATER,
            "extents_identical": True,
        }
        if best is None or candidate["speedup"] > best["speedup"]:
            best = candidate
    return best


def _passes(row: dict) -> bool:
    return (
        row["speedup"] >= MIN_SPEEDUP
        and row["imbalance_high_water"] <= MAX_HIGH_WATER
    )


def _summary(row: dict) -> str:
    return "\n".join(
        [
            "adaptive rebalancing under drift: %d statements in %d batches x "
            "%d phases, %d views, %d parties:"
            % (
                row["statements"],
                row["batches"],
                row["phases"],
                row["views"],
                row["workers"],
            ),
            "  frozen session propagation %8.2fms, adaptive %8.2fms "
            "(%d live migrations, %.2fms migrating, %.2fms per move)"
            % (
                row["frozen_propagation_s"] * 1000,
                row["adaptive_propagation_s"] * 1000,
                row["live_migrations"],
                row["migration_s"] * 1000,
                row["migration_s_per_move"] * 1000,
            ),
            "  extents: byte-identical to serial for both sessions, verified "
            "against fresh evaluation",
            "  post-migration imbalance high-water %.3f (ceiling %.2f; frozen "
            "drifts to %.3f)"
            % (
                row["imbalance_high_water"],
                row["high_water_ceiling"],
                row["frozen_high_water"],
            ),
            "  measured speedup %.2fx adaptive over frozen (floor %.1fx)"
            % (row["speedup"], row["floor"]),
        ]
    )


def _write_step_summary(row: dict, passed: bool) -> None:
    """Append the gate numbers to the GitHub Actions job summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### Adaptive rebalancing gate",
        "",
        "| metric | value | gate |",
        "| --- | --- | --- |",
        "| adaptive vs frozen speedup (%d workers) | %.2fx | >= %.1fx |"
        % (row["workers"], row["speedup"], row["floor"]),
        "| post-migration imbalance high-water | %.3f | <= %.2f |"
        % (row["imbalance_high_water"], row["high_water_ceiling"]),
        "| frozen imbalance high-water | %.3f | recorded |"
        % (row["frozen_high_water"],),
        "| live migrations / %d drift batches | %d | recorded |"
        % (row["batches"], row["live_migrations"]),
        "| migration seconds, total / mean per move | %.4f / %.4f | recorded |"
        % (row["migration_s"], row["migration_s_per_move"]),
        "| extents vs serial | %s | identical |"
        % ("identical" if row["extents_identical"] else "DIVERGED"),
        "| result | %s | |" % ("PASS" if passed else "FAIL"),
        "",
    ]
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def test_rebalance_speedup(save_table):
    import pytest

    cpus = _usable_cpus()
    if cpus < 2:
        pytest.skip(SKIPPED % cpus)
    row = run_gate(cpus)
    save_table("rebalance.txt", _summary(row))
    assert _passes(row), row


def main() -> int:
    cpus = _usable_cpus()
    if cpus < 2:
        print("adaptive rebalancing gate skipped: " + SKIPPED % cpus)
        return 0
    row = run_gate(cpus)
    passed = _passes(row)
    print(_summary(row))
    print("-> %s" % ("PASS" if passed else "FAIL"))
    _write_step_summary(row, passed)
    return 0 if passed else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
