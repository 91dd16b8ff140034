"""Ablation: the dynamic pruning rules (Props. 3.6/3.8, 4.7).

Not a paper figure per se -- the paper motivates the prunings
analytically (Section 3.2/4.3) -- but DESIGN.md calls the pruning rules
out as a load-bearing design choice, so this bench quantifies them:
propagation with all prunings on vs. update-semantics pruning only.

Expected shape: pruning never hurts; the surviving-term count drops,
and execute-update time drops with it on updates whose Δ tables leave
most terms empty.
"""

import time

from repro.maintenance.engine import MaintenanceEngine
from repro.workloads.queries import view_pattern
from repro.workloads.updates import VIEW_UPDATE_GROUPS, insert_update
from repro.workloads.xmark import generate_document

from conftest import SCALE_MEDIUM, rows_to_table


def _run(view_name, update_name, use_pruning):
    document = generate_document(scale=SCALE_MEDIUM)
    engine = MaintenanceEngine(
        document,
        use_data_pruning=use_pruning,
        use_id_pruning=use_pruning,
    )
    registered = engine.register_view(
        view_pattern(view_name), view_name, strategy="snowcaps"
    )
    started = time.perf_counter()
    report = engine.apply_update(insert_update(update_name))
    elapsed = time.perf_counter() - started
    assert registered.view.equals_fresh_evaluation(document)
    view_report = report.report_for(view_name)
    return elapsed, view_report.terms_surviving


def test_ablation_pruning(benchmark, save_table):
    rows = []
    for view_name in ("Q1", "Q4", "Q6"):
        update_name = VIEW_UPDATE_GROUPS[view_name][0]
        pruned_s, pruned_terms = _run(view_name, update_name, True)
        unpruned_s, unpruned_terms = _run(view_name, update_name, False)
        rows.append(
            {
                "view": view_name,
                "update": update_name,
                "terms_pruned": pruned_terms,
                "terms_unpruned": unpruned_terms,
                "pruned_s": round(pruned_s, 6),
                "unpruned_s": round(unpruned_s, 6),
            }
        )
    save_table(
        "ablation_pruning.txt",
        rows_to_table(
            rows,
            ("view", "update", "terms_pruned", "terms_unpruned",
             "pruned_s", "unpruned_s"),
            "Ablation: dynamic pruning rules on vs off",
        ),
    )
    assert all(row["terms_pruned"] <= row["terms_unpruned"] for row in rows)

    benchmark.pedantic(lambda: _run("Q4", "X2_L", True), rounds=2)
