"""Figure 18: time breakdown of insert propagation (views Q1/Q3/Q6).

Paper shape: Find-Target-Nodes (Saxon, in the paper) dominates the
Δ-table / expression / execute phases; Update-Lattice tracks view
complexity, not the update.

Measured shape here (SCALE_MEDIUM, 2-vCPU Xeon, CPython 3.11):
Find-Target-Nodes does not dominate.  The set-level XPath evaluator
takes 0.1-0.5 ms per row, 12% of the summed row time (3-53% per row;
the per-context evaluator it replaced took 17%, 2-63%).  Its share is
largest on Q3, whose targets are child steps through every
``open_auction`` while the maintenance itself stays under 0.5 ms; Q6
rows spend 84-95% in Execute-Update.
"""

from repro.bench.experiments import run_breakdown_matrix
from repro.bench.harness import format_rows, fresh_engine
from repro.workloads.updates import insert_update

from conftest import SCALE_MEDIUM


def test_fig18_insert_breakdown(benchmark, save_table):
    rows = run_breakdown_matrix(SCALE_MEDIUM, "insert", views=("Q1", "Q3", "Q6"))
    save_table(
        "fig18_insert_breakdown.txt",
        format_rows(rows, "Figure 18: insert propagation breakdown (ms)"),
    )

    def setup():
        return (fresh_engine(SCALE_MEDIUM, ("Q1",)),), {}

    benchmark.pedantic(
        lambda engine: engine.apply_update(insert_update("X1_L")),
        setup=setup,
        rounds=3,
    )
