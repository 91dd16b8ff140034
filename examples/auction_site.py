"""Auction-site scenario: many views, a stream of updates, breakdowns.

Run with::

    python examples/auction_site.py

Reproduces the paper's motivating setting: an XMark auction document
with several materialized views (Q1, Q3, Q6 of Appendix A.6) kept
consistent under a stream of XPathMark-style updates.  Prints the same
five-phase breakdown as Figures 18/19 and a comparison against full
recomputation for the last statement.
"""

from repro.baselines.recompute import full_recompute
from repro.maintenance.engine import PHASES, MaintenanceEngine
from repro.views.lattice import SnowcapLattice
from repro.workloads.queries import view_pattern
from repro.workloads.updates import delete_variant, insert_update
from repro.workloads.xmark import generate_document, size_of

VIEWS = ("Q1", "Q3", "Q6")
STREAM = [
    insert_update("X1_L"),     # new name children under every person
    insert_update("X3_A"),     # increases for private auctions with bidders
    delete_variant("B7_LB"),   # drop persons with an income profile
    insert_update("E6_L"),     # a new item inside every item
    delete_variant("A7_O"),    # drop persons with phone or homepage
]


def main():
    document = generate_document(scale=2)
    print("document: %d bytes, %d nodes" % (size_of(document), document.size_in_nodes()))
    engine = MaintenanceEngine(document)
    # Snowcaps, the paper's materialization (Section 3.5); the engine's
    # default, "leaves", keeps no lattice beside the extent.
    registered = {
        name: engine.register_view(view_pattern(name), name, strategy="snowcaps")
        for name in VIEWS
    }
    for name, view in registered.items():
        print("  %-4s %-60s %4d tuples" % (name, view.pattern.to_string(), len(view.view)))

    header = "%-8s %-6s" % ("update", "view")
    header += "".join(" %12s" % phase[:12] for phase in PHASES) + " %10s" % "total_ms"
    print("\n" + header)
    for statement in STREAM:
        report = engine.apply_update(statement)
        for name in VIEWS:
            phases = report.report_for(name).phases
            line = "%-8s %-6s" % (statement.name, name)
            for phase in PHASES:
                line += " %12.2f" % (phases.as_dict()[phase] * 1000)
            line += " %10.2f" % (phases.total() * 1000)
            print(line)
        for name, view in registered.items():
            assert view.view.equals_fresh_evaluation(document), name

    # How long would recomputing have taken instead?
    print("\nincremental vs full recomputation (document as of now):")
    for name, view in registered.items():
        lattice = SnowcapLattice(view.pattern, strategy=view.lattice.strategy)
        _fresh, seconds = full_recompute(view.pattern, document, lattice)
        print("  %-4s full recomputation: %8.2f ms" % (name, seconds * 1000))
    print("all views verified consistent after the stream")


if __name__ == "__main__":
    main()
