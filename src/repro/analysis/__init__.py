"""repro-lint: static checks for the engine's correctness invariants.

The scale-out contract -- sharded and sessioned propagation byte-
identical to serial -- reduces to source-level invariants this package
enforces on every commit (CI ``lint`` job):

====================  ==================================================
family                protects
====================  ==================================================
``determinism``       no PYTHONHASHSEED / wall-clock / entropy
                      dependence in ordered outputs
``fork-safety``       globals read-only in forked workers; no locks,
                      files or generators across fork/pickle
``picklability``      fragments carry scalars/containers/DeweyID only
``layering``          the import DAG has no upward edge
====================  ==================================================

Run ``python -m repro.analysis`` (or the ``repro-lint`` script); see
``--list-rules`` and the README "Static analysis" section.
"""

from repro.analysis.core import (
    AnalysisReport,
    Finding,
    ModuleInfo,
    Rule,
    all_rules,
    analyze_paths,
    default_target,
    register,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "analyze_paths",
    "default_target",
    "register",
]
