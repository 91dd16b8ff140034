"""Update sequences: PUL reduction before propagation (Section 5).

Run with::

    python examples/update_sequences.py

A burst of overlapping statements is compiled to atomic operations,
reduced with the rules O1/O3/I5, and propagated as one batch; the
example shows the operation counts before/after reduction, conflict
detection between parallel PULs, and that the reduced batch lands on
the same view extent as the unreduced one.
"""

from repro.maintenance.engine import MaintenanceEngine
from repro.updates.conflicts import deletes_win, detect_conflicts, integrate_puls
from repro.updates.language import DeleteUpdate, InsertUpdate, UpdateBatch
from repro.updates.pul import compute_pul
from repro.updates.reduce import pul_to_operations, reduce_operations
from repro.workloads.queries import view_pattern
from repro.workloads.xmark import generate_document

BURST = [
    InsertUpdate("/site/people/person", "<name>Tmp<name>x</name></name>", name="ins_all"),
    InsertUpdate("/site/people/person", "<name>Tmp<name>y</name></name>", name="ins_again"),
    DeleteUpdate("/site/people/person[profile]", name="del_profiled"),
]


def main():
    document = generate_document(scale=1)
    operations = []
    for statement in BURST:
        operations.extend(pul_to_operations(compute_pul(document, statement)))
    reduced = reduce_operations(operations)
    print("atomic operations before reduction: %d" % len(operations))
    print("atomic operations after O1/O3/I5:   %d" % len(reduced))

    # Conflicts between two PULs meant to run in parallel.
    pul1 = pul_to_operations(compute_pul(document, BURST[2]))
    pul2 = pul_to_operations(compute_pul(document, BURST[0]))
    conflicts = detect_conflicts(pul1, pul2)
    print("\nparallel-PUL conflicts (delete-profiled vs insert-names): %d" % len(conflicts))
    kinds = sorted({conflict.kind for conflict in conflicts})
    print("  kinds:", ", ".join(kinds))
    integrated, _ = integrate_puls(pul1, pul2, resolution=deletes_win)
    print("  integrated under the deletes-win policy: %d operations" % len(integrated))

    # End-to-end: the burst as written, one batch, lands where its
    # reduced atomic operations do.
    def run(optimize):
        doc = generate_document(scale=1)
        engine = MaintenanceEngine(doc)
        registered = engine.register_view(view_pattern("Q1"), "Q1")
        statements = BURST
        if optimize:
            statements = reduce_operations(
                [
                    op
                    for statement in BURST
                    for op in pul_to_operations(compute_pul(doc, statement))
                ]
            )
        engine.apply_batch(UpdateBatch(statements))
        assert registered.view.equals_fresh_evaluation(doc)
        return registered.view.content()

    plain = run(False)
    optimized = run(True)
    assert plain == optimized
    print("\noptimized propagation matches plain propagation (%d view tuples)"
          % len(plain))

if __name__ == "__main__":
    main()
