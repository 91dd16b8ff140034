"""Rule modules; importing this package registers every rule.

Five families, one module each:

* :mod:`~repro.analysis.rules.determinism` -- hash-seed / wall-clock /
  randomness hazards in packages whose iteration feeds ordered output,
  plus the ``repro.obs`` clock discipline (wall-clock stamps live in
  ``obs/export.py`` alone; spans carry monotonic readings);
* :mod:`~repro.analysis.rules.forksafety` -- module-global writes in
  fork-worker entry points and fork-hostile captures;
* :mod:`~repro.analysis.rules.fragments` -- fragment/stats classes
  carry only pickle-lean allowlisted field types;
* :mod:`~repro.analysis.rules.layering` -- the import DAG
  (xmldom -> algebra/pattern -> ... -> sharding) admits no upward edge;
* :mod:`~repro.analysis.rules.hotpath` -- document-order sorts key by
  and bisects probe with ``DeweyID.sort_key`` (C comparisons), never
  the ID object.
"""

from repro.analysis.rules import (  # noqa: F401 (registration side effects)
    determinism,
    forksafety,
    fragments,
    hotpath,
    layering,
)
