"""Fixture: upward imports against the layer DAG (layer-upward-import).

Three findings: the module-scope from-import, the deferred import
inside the function (deferral doesn't launder the edge) and the
``from repro import <subpackage>`` spelling.  The downward import is
fine.
"""

from repro.sharding import planner  # finding: maintenance -> sharding
from repro.updates.pul import PendingUpdateList  # fine: downward


def lazy_edge():
    import repro.sharding.session  # finding: deferred upward import

    return repro.sharding.session


def aliased_edge():
    from repro import sharding  # finding: subpackage via alias list

    return sharding, planner, PendingUpdateList
