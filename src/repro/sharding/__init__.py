"""Resident view-sharded workers: the engine's second execution mode.

``engine.session(workers=N)`` starts a :class:`ShardSession`
(:mod:`repro.sharding.session`) of N parties: the owner maintains its
share of the views in-process (party 0) and N−1 forked replicas run the
engine's in-process batch round over theirs and keep those extents,
replying with counters; the owner pulls a replica view's extent when it
is read, so extents stay byte-identical to in-process propagation.
View ownership is planned by :mod:`repro.sharding.planner` (LPT) and
adapted by :mod:`repro.sharding.rebalance` (EWMA cost model,
hysteretic migration policy); a migration moves a view's extent pairs
through the owner in one round.
"""

from repro.sharding.planner import imbalance_ratio, lpt_assignment
from repro.sharding.rebalance import RebalancePolicy, ViewCostModel
from repro.sharding.session import ShardSession

# Dependency inversion: maintenance sits below sharding in the layer
# DAG and must not import this package, so ``engine.session()`` looks
# ``ShardSession`` up through a registered backend instead.  Registering
# this package's own namespace closes the loop; repro/__init__ imports
# us so the seam is wired before any engine code runs.
import sys as _sys

from repro.maintenance.engine import register_shard_backend as _register_shard_backend

_register_shard_backend(_sys.modules[__name__])

__all__ = [
    "RebalancePolicy",
    "ShardSession",
    "ViewCostModel",
    "imbalance_ratio",
    "lpt_assignment",
]
