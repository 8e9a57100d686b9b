"""Simulation-wide telemetry: span tracing, metrics, exportable timelines.

The measurement substrate for every performance question the paper
asks: where does a hivemind epoch spend its time (calculation vs
matchmaking vs transfer), per peer, per epoch, on a real timeline —
not just as end-of-run aggregates.

* :mod:`repro.telemetry.tracer` — sim-time :class:`Span` tracing,
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms,
* :mod:`repro.telemetry.sink` — the :class:`Telemetry` facade with its
  kernel tallies, and the zero-overhead :data:`NULL_TELEMETRY`,
* :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON (open in
  Perfetto), JSONL event logs, Prometheus text dumps.

Everything is timestamped with simulated seconds only, so traces are
byte-identical across identically-seeded runs.
"""

from .export import (
    chrome_trace_events,
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    to_prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .sink import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    current_telemetry,
    resolve_telemetry,
    use_telemetry,
)
from .tracer import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "Tracer",
    "chrome_trace_events",
    "current_telemetry",
    "read_jsonl",
    "resolve_telemetry",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus_text",
    "use_telemetry",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
