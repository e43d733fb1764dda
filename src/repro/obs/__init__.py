"""Observability: process-wide metrics, span tracing, exposition.

The serving stack's shared instrumentation layer (see
``docs/OBSERVABILITY.md`` for the metric-name and span taxonomy):

* :mod:`.metrics` — :class:`MetricsRegistry` with counters, gauges and
  reservoir histograms, all label-aware;
* :mod:`.trace` — :class:`Tracer` building per-request timing trees;
* :mod:`.export` — Prometheus-flavored text and JSON exposition;
* :mod:`.clock` — injectable clocks so every duration is testable.

Instrumented modules default to the process-wide :func:`get_registry`
/ :func:`get_tracer`; pass :class:`NullRegistry` / :class:`NullTracer`
to turn recording off on a call-by-call basis.
"""

from .._exports import export_lazily

__all__ = [
    "Clock", "Counter", "Gauge", "Histogram", "ManualClock", "MetricFamily",
    "MetricsRegistry", "NullRegistry", "NullTracer", "Span", "SystemClock",
    "Tracer", "get_registry", "get_tracer", "render_json",
    "render_json_text", "render_text", "set_registry", "set_tracer",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "clock": ("Clock", "ManualClock", "SystemClock"),
    "export": ("render_json", "render_json_text", "render_text"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricFamily",
                "MetricsRegistry", "NullRegistry", "get_registry",
                "set_registry"),
    "trace": ("NullTracer", "Span", "Tracer", "get_tracer", "set_tracer"),
})
