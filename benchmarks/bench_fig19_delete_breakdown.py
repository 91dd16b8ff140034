"""Figure 19: time breakdown of delete propagation (views Q1/Q3/Q6).

Paper shape: Get-Update-Expression is cheaper than for insertions
(pruning the deletion expression is faster); Update-Lattice is costlier
than for insertions (the lattice must be searched for doomed rows);
Find-Target-Nodes (Saxon, in the paper) dominates, as in Figure 18.

Measured shape here (SCALE_MEDIUM, 2-vCPU Xeon, CPython 3.11):
Find-Target-Nodes does not dominate.  The set-level XPath evaluator
takes 0.1-0.6 ms per row, 22% of the summed row time (6-51% per row;
the per-context evaluator it replaced took 29%, 6-56%), the largest
shares again on Q3's child-step paths through every ``open_auction``.
"""

from repro.bench.experiments import run_breakdown_matrix
from repro.bench.harness import format_rows, fresh_engine
from repro.workloads.updates import delete_variant

from conftest import SCALE_MEDIUM


def test_fig19_delete_breakdown(benchmark, save_table):
    rows = run_breakdown_matrix(SCALE_MEDIUM, "delete", views=("Q1", "Q3", "Q6"))
    save_table(
        "fig19_delete_breakdown.txt",
        format_rows(rows, "Figure 19: delete propagation breakdown (ms)"),
    )

    def setup():
        return (fresh_engine(SCALE_MEDIUM, ("Q1",)),), {}

    benchmark.pedantic(
        lambda engine: engine.apply_update(delete_variant("A6_A")),
        setup=setup,
        rounds=3,
    )
