"""repro: incremental XML materialized-view maintenance at scale.

This ``__init__`` is the *aggregator*: the one module allowed (and
required) to know the whole layer stack.  Importing the top of the
stack here guarantees that cross-layer seams wired by import-time
registration -- today, ``repro.sharding`` installing itself as the
maintenance engine's shard backend -- are connected before any
``repro.*`` submodule code runs, since Python always initializes a
parent package before its children.

The layer DAG itself (xmldom -> algebra/obs -> pattern -> updates ->
views -> storage/schema/workloads -> maintenance -> sharding/baselines
-> bench/analysis) is machine-checked by ``python -m repro.analysis``;
this file is exempt as the aggregator.
"""

import repro.sharding as _sharding  # noqa: F401 (registers the shard backend)
