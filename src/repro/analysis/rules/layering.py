"""Layering rule: the import DAG admits no upward edge.

The repo's layer order (ROADMAP "Engine architecture", bottom-up)::

    xmldom -> algebra / obs -> pattern -> updates -> views
           -> storage / schema / workloads
           -> maintenance -> sharding / baselines -> bench / analysis

A package may import strictly *lower* layers (and itself).  Upward
imports are how the maintenance/sharding cycle crept in historically;
the sanctioned escape hatch is dependency inversion -- the lower layer
exposes a registration seam (``maintenance.engine.register_shard_backend``)
and the higher layer plugs itself in at import time, wired by the
``repro`` package ``__init__`` (which, as the aggregator, is exempt).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import Finding, ModuleInfo, Rule, register

#: layer rank per top-level repro package (higher = closer to the app).
LAYER_RANKS = {
    "xmldom": 0,
    "algebra": 1,
    "obs": 1,
    "pattern": 2,
    "updates": 3,
    "views": 4,
    "storage": 5,
    "schema": 5,
    "workloads": 5,
    "maintenance": 6,
    "sharding": 7,
    "baselines": 7,
    "bench": 8,
    "analysis": 8,
}

#: modules exempt from the rule: the aggregator ``repro/__init__`` (it
#: exists to wire the layers together) and ``__main__`` entry points.
_EXEMPT_PACKAGES = ((), ("__main__",))


@register
class UpwardImportRule(Rule):
    """``repro.<lower>`` importing ``repro.<higher>`` (or a same-rank
    sibling), at any scope -- deferred imports don't launder the edge."""

    id = "layer-upward-import"
    family = "layering"
    description = (
        "import against the layer DAG (xmldom -> ... -> sharding); "
        "invert the dependency instead of importing upward"
    )

    def applies(self, module: ModuleInfo) -> bool:
        if module.package in _EXEMPT_PACKAGES:
            return False
        return module.top_package in LAYER_RANKS

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        own = module.top_package
        own_rank = LAYER_RANKS[own]
        for node in ast.walk(module.tree):
            targets = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative: stays inside the package
                if node.module == "repro":
                    # ``from repro import sharding`` names the subpackage
                    # in the alias list, not the module path.
                    targets = ["repro." + alias.name for alias in node.names]
                elif node.module is not None:
                    targets = [node.module]
            for target in targets:
                imported = self._imported_package(target)
                if imported is None or imported == own:
                    continue
                rank = LAYER_RANKS.get(imported)
                if rank is None:
                    continue
                if rank > own_rank:
                    yield self.finding(
                        module,
                        node,
                        "repro.%s (layer %d) must not import repro.%s "
                        "(layer %d); register a backend/callback from the "
                        "higher layer instead" % (own, own_rank, imported, rank),
                    )
                elif rank == own_rank:
                    yield self.finding(
                        module,
                        node,
                        "repro.%s and repro.%s share layer %d and must stay "
                        "independent; move shared code to a lower layer"
                        % (own, imported, rank),
                    )

    @staticmethod
    def _imported_package(target: str) -> Optional[str]:
        parts = target.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return None
        return parts[1]
