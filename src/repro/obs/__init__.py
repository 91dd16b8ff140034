"""``repro.obs`` -- metrics and tracing for the maintenance engine.

The package sits at the bottom of the layer DAG (rank 1, beside
``algebra``): every layer above may import it, and it imports nothing
from ``repro`` at all -- pure stdlib -- so instrumentation can never
create an upward edge.

Two halves:

* :mod:`~repro.obs.registry` -- counters, gauges, fixed-bucket
  histograms with deterministic label sets;
* :mod:`~repro.obs.trace` / :mod:`~repro.obs.fragments` -- span trees
  on monotonic clocks, flattened to picklable fragments at the fork
  boundary and stitched back under the session's ``replica_apply``
  spans.

:class:`Observability` bundles one registry and one tracer; the shared
:data:`NULL_OBS` is the engine-wide default and makes every
instrumentation site a no-op.  Exporters (JSON-lines, Prometheus text)
live in :mod:`~repro.obs.export`, the trace summary CLI behind
``python -m repro.obs`` in :mod:`~repro.obs.cli`.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.fragments import SpanFragment, fragments_to_spans, spans_to_fragments
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanFragment",
    "spans_to_fragments",
    "fragments_to_spans",
    "Observability",
    "NULL_OBS",
]


class Observability:
    """One registry + one tracer, threaded through engine components.

    ``trace_path`` optionally names a JSON-lines sink; :meth:`flush`
    drains finished spans there (``ApplyQueue.close`` calls it so a
    queue shutdown never strands buffered spans).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace_path: Optional[str] = None,
    ) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.trace_path = trace_path
        self._flushed_once = False

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    def span(self, name: str, /, **attrs):
        return self.tracer.span(name, **attrs)

    def flush(self):
        """Drain finished spans; append them to ``trace_path`` if set.

        Returns the drained spans so callers without a sink can still
        collect them.
        """
        spans = self.tracer.drain()
        if self.trace_path is not None and (spans or not self._flushed_once):
            from repro.obs.export import write_jsonl

            write_jsonl(
                self.trace_path,
                spans,
                registry=self.metrics if self.metrics.enabled else None,
                append=self._flushed_once,
            )
            self._flushed_once = True
        return spans


class _NullObservability(Observability):
    """Shared inert facade; the default everywhere."""

    def __init__(self) -> None:
        super().__init__(NULL_REGISTRY, NULL_TRACER, trace_path=None)

    def flush(self):
        return []


#: Process-wide no-op facade -- the default ``obs`` for every engine.
NULL_OBS = _NullObservability()
