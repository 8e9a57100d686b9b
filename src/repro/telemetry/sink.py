"""The telemetry facade: one object wired through a whole run.

:class:`Telemetry` bundles a :class:`~repro.telemetry.tracer.Tracer`
and a :class:`~repro.telemetry.metrics.MetricsRegistry` and implements
the kernel-hook protocol the simulation
:class:`~repro.simulation.Environment` calls on process spawn / finish
/ interrupt and event scheduling.

:data:`NULL_TELEMETRY` is the disabled implementation: every method is
a no-op that returns before formatting any attribute, and ``span()``
hands back one shared context manager, so instrumented hot paths cost a
single attribute lookup when tracing is off.

:func:`use_telemetry` installs an ambient sink so deep call stacks
(``generate`` → figure function → ``run_experiment`` → ``run_hivemind``)
pick it up without threading a parameter through every layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Optional

from .metrics import MetricsRegistry
from .tracer import Span, Tracer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "current_telemetry",
    "use_telemetry",
    "resolve_telemetry",
]


class Telemetry:
    """Enabled telemetry: records spans, metrics and kernel events."""

    enabled = True

    def __init__(self, capture_processes: bool = False):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: Record a span per simulation process on the ``sim:processes``
        #: track. Off by default: kernel processes outnumber the
        #: explicitly instrumented spans and the extra recording is the
        #: single biggest share of tracing overhead; the process
        #: *tallies* below are kept either way.
        self.capture_processes = capture_processes
        # Kernel tallies kept as plain ints on the hot path; folded into
        # the registry by :meth:`sync_kernel_metrics`. The scheduled-
        # event count is read from each bound environment's ``_sequence``
        # counter (the kernel already numbers every event), so only the
        # queue-depth high-water mark costs anything per event.
        self._events_before = 0
        self._env = None
        self.queue_depth_high_water = 0
        self.processes_spawned = 0
        self.processes_finished = 0
        self.processes_failed = 0
        self.processes_interrupted = 0
        self._open_process_spans: dict[int, Span] = {}

    # -- convenience passthroughs -----------------------------------------

    def span(self, name: str, category: str = "", track: str = "main",
             **attrs: Any):
        return self.tracer.span(name, category, track, **attrs)

    def begin_span(self, name: str, category: str = "", track: str = "main",
                   **attrs: Any) -> Span:
        return self.tracer.begin(name, category, track, **attrs)

    def end_span(self, span: Span) -> None:
        self.tracer.finish(span)

    def instant(self, name: str, category: str = "", track: str = "main",
                **attrs: Any) -> None:
        self.tracer.instant(name, category, track, **attrs)

    def counter(self, name: str, help: str = ""):
        return self.metrics.counter(name, help)

    def gauge(self, name: str, help: str = ""):
        return self.metrics.gauge(name, help)

    def histogram(self, name: str, help: str = "", **kwargs):
        return self.metrics.histogram(name, help, **kwargs)

    # -- kernel hook protocol ----------------------------------------------

    def bind(self, env) -> None:
        """Adopt ``env``'s clock; called by ``Environment.__init__``."""
        # Read the kernel's raw clock attribute when it has one: the
        # tracer calls this on every span boundary, and skipping the
        # ``now`` property descriptor is measurable.
        if hasattr(env, "_now"):
            self.tracer.bind_clock(lambda: env._now)
        else:
            self.tracer.bind_clock(lambda: env.now)
        if self._env is not None:
            self._events_before += getattr(self._env, "_sequence", 0)
        self._env = env
        self._open_process_spans.clear()

    @property
    def events_scheduled(self) -> int:
        """Events pushed onto the queues of every bound environment."""
        env = self._env
        extra = getattr(env, "_sequence", 0) if env is not None else 0
        return self._events_before + extra

    def on_process_spawn(self, process) -> None:
        self.processes_spawned += 1
        if self.capture_processes:
            self._open_process_spans[id(process)] = self.tracer.begin(
                process.name, category="process", track="sim:processes"
            )

    def on_process_finish(self, process, ok: bool) -> None:
        self.processes_finished += 1
        if not ok:
            self.processes_failed += 1
        span = self._open_process_spans.pop(id(process), None)
        if span is not None:
            span.attrs["ok"] = ok
            self.tracer.finish(span)

    def on_process_interrupt(self, process, cause: Any) -> None:
        self.processes_interrupted += 1
        if self.capture_processes:
            self.tracer.instant(
                "interrupt", category="process", track="sim:processes",
                process=process.name, cause=str(cause),
            )

    def sync_kernel_metrics(self) -> None:
        """Fold the kernel tallies into the registry (idempotent)."""
        gauge = self.metrics.gauge
        gauge("sim_events_scheduled",
              "Events pushed onto the simulation queue").set(
            self.events_scheduled)
        gauge("sim_event_queue_depth_max",
              "High-water mark of the event queue").set(
            self.queue_depth_high_water)
        gauge("sim_processes_spawned",
              "Simulation processes started").set(self.processes_spawned)
        gauge("sim_processes_finished",
              "Simulation processes completed").set(self.processes_finished)
        gauge("sim_processes_failed",
              "Simulation processes ended by an exception").set(
            self.processes_failed)
        gauge("sim_processes_interrupted",
              "Interrupt() calls delivered to processes").set(
            self.processes_interrupted)


class _NullSpanContext:
    """Shared no-op ``with`` target; also quacks like a closed span."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    @property
    def attrs(self) -> dict:
        return {}


_NULL_SPAN = _NullSpanContext()


class _NullMetric:
    """Accepts every update and stores nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def set_max(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def labels(self, **labels) -> "_NullMetric":
        return self

    def value(self, **labels) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class _NullRegistry:
    __slots__ = ()

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", **kwargs) -> _NullMetric:
        return _NULL_METRIC

    def collect(self) -> list:
        return []


class NullTelemetry:
    """Disabled telemetry: every operation short-circuits immediately."""

    enabled = False

    def __init__(self):
        self.metrics = _NullRegistry()
        self.tracer = None

    def span(self, name: str, category: str = "", track: str = "main",
             **attrs) -> _NullSpanContext:
        return _NULL_SPAN

    def begin_span(self, name: str, category: str = "", track: str = "main",
                   **attrs) -> _NullSpanContext:
        return _NULL_SPAN

    def end_span(self, span) -> None:
        pass

    def instant(self, name: str, category: str = "", track: str = "main",
                **attrs) -> None:
        pass

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", **kwargs) -> _NullMetric:
        return _NULL_METRIC

    def bind(self, env) -> None:
        pass

    def sync_kernel_metrics(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()

_AMBIENT: Optional[Telemetry] = None


def current_telemetry() -> Optional[Telemetry]:
    """The ambient sink installed by :func:`use_telemetry`, if any."""
    return _AMBIENT


@contextmanager
def use_telemetry(telemetry: Telemetry):
    """Install ``telemetry`` as the ambient sink for the block."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = telemetry
    try:
        yield telemetry
    finally:
        _AMBIENT = previous


def resolve_telemetry(explicit: Optional[Telemetry]) -> "Telemetry | NullTelemetry":
    """Pick the explicit sink, else the ambient one, else the null sink."""
    if explicit is not None:
        return explicit
    ambient = current_telemetry()
    return ambient if ambient is not None else NULL_TELEMETRY
