"""Per-layer attribution for the traced run: host self time and counts.

Nothing here edits ``repro``; it observes the program from outside.

* :func:`profile_self_times` aggregates a cProfile run by ``repro``
  module. Time spent in the standard library, numpy and builtins is
  charged to the ``repro`` module that called it (split by the caller
  edges' own time), so the fabric's rebalancing, which runs in kernel
  callbacks under ``Environment.run``, is charged to ``network`` rather
  than to ``simulation``.
* :func:`instrumented` wraps the public entry points of each layer to
  count calls and time the cache paths, and installs an ambient
  ``Telemetry`` sink so the program's own registry counts the kernel,
  fabric, averager, DHT, spot and fault work.
* :func:`cache_fill` counts and times the cache writes of a set-up.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path

#: Layers reported as ``<layer>.self_s``. ``repro`` modules outside
#: these (hardware, models, data, training, the rest of hivemind, the
#: CLI) are reported together as ``other``.
LAYERS = (
    "simulation", "network", "hivemind.run", "hivemind.averager",
    "hivemind.dht", "hivemind.matchmaking", "cloud", "faults",
    "controlplane", "core", "orchestrator", "telemetry", "experiments",
    "other",
)
_HIVEMIND = {"run", "averager", "dht", "matchmaking"}

#: Every count the traced run reports, as ``<layer>.<count>``.
COUNTS = (
    "simulation.events", "simulation.processes", "simulation.queue_max",
    "network.transfer_calls", "network.flows_done", "network.bytes",
    "network.aborts", "network.peak_flows", "network.topology_builds",
    "hivemind.run.runs", "hivemind.run.epochs", "hivemind.run.state_syncs",
    "hivemind.averager.rounds", "hivemind.averager.retries",
    "hivemind.averager.degraded",
    "hivemind.dht.rpcs", "hivemind.dht.timeouts", "hivemind.dht.retries",
    "hivemind.matchmaking.rounds",
    "cloud.preemptions", "faults.injections", "controlplane.decisions",
    "core.cost_reports",
    "orchestrator.fingerprints", "orchestrator.memo_hits",
    "orchestrator.cache_hits", "orchestrator.cache_misses",
    "orchestrator.cache_puts", "orchestrator.executed",
    "telemetry.spans", "telemetry.export_bytes",
    "experiments.reports",
)
#: Distinct forms of outputs that identical passes should repeat, seen
#: over a traced run's passes (1 when the program is reproducible).
VARIANTS = ("hivemind.run.result_variants", "telemetry.trace_variants")
#: Host times measured by the wrappers (inclusive, seconds per pass).
TIMERS = (
    "hivemind.averager.busy_s", "hivemind.dht.busy_s",
    "orchestrator.get_s", "orchestrator.put_s", "orchestrator.decode_s",
)


def layer_of(filename: str, package_root: Path) -> str | None:
    """The layer a source file belongs to, or None outside ``repro``."""
    try:
        parts = Path(filename).relative_to(package_root).parts
    except ValueError:
        return None
    if len(parts) < 2:
        return "other"
    if parts[0] == "hivemind":
        module = Path(parts[1]).stem
        return f"hivemind.{module}" if module in _HIVEMIND else "other"
    return parts[0] if parts[0] in LAYERS else "other"


def profile_self_times(profile: cProfile.Profile,
                       package_root: Path) -> dict[str, float]:
    """Self seconds per layer; non-``repro`` time goes to its caller."""
    stats = pstats.Stats(profile).stats
    owner = {func: layer_of(func[0], package_root) for func in stats}
    memo: dict = {}

    def shares(func, visiting: frozenset) -> dict:
        """How ``func``'s own time splits over the layers calling it."""
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            # Edges too short to time: split by call count instead.
            weights = {caller: edge[0] for caller, edge in callers.items()}
            total = sum(weights.values())
        split: dict = defaultdict(float)
        for caller, weight in weights.items():
            part = weight / total
            layer = owner.get(caller)
            if layer is not None:
                split[layer] += part
            elif caller in visiting or caller not in stats:
                split[None] += part
            else:
                for up, share in shares(caller, visiting | {func}).items():
                    split[up] += part * share
        if not weights:
            split[None] = 1.0
        memo[func] = split
        return split

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (__, __, tottime, __, __) in stats.items():
        layer = owner[func]
        if layer is not None:
            totals[layer] += tottime
            continue
        for up, share in shares(func, frozenset()).items():
            if up is not None:
                totals[up] += tottime * share
    return totals


@contextmanager
def profiled(package_root: Path):
    """Profile the block; yields a dict filled with per-layer self time."""
    profile = cProfile.Profile()
    totals: dict[str, float] = {}
    profile.enable()
    try:
        yield totals
    finally:
        profile.disable()
    totals.update(profile_self_times(profile, package_root))


# -- wrapped entry points -------------------------------------------------------


class Recorder:
    """Counts and timers filled by the wrapped entry points."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.timers: dict[str, float] = defaultdict(float)
        self.fabrics: dict[int, object] = {}

    def peak_flows(self) -> int:
        return max((fabric.peak_active_flows
                    for fabric in self.fabrics.values()), default=0)


def _patch_everywhere(stack: ExitStack, original, replacement) -> None:
    """Rebind ``original`` in every ``repro`` module namespace holding it
    (``from x import f`` copies the name), restoring it on exit."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                stack.callback(setattr, module, attr, original)


def _patch_method(stack: ExitStack, cls, name: str, make) -> None:
    original = cls.__dict__[name]
    setattr(cls, name, make(original))
    stack.callback(setattr, cls, name, original)


def _counted(recorder: Recorder, key: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.counts[key] += 1
        return original(*args, **kwargs)
    return wrapper


def _timed(recorder: Recorder, timer: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            recorder.timers[timer] += time.perf_counter() - start
    return wrapper


def _timed_generator(recorder: Recorder, key: str, timer: str, original):
    """Count calls of a generator function and time every resumption
    (the call itself only builds the generator)."""
    clock = time.perf_counter

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.counts[key] += 1
        inner = original(*args, **kwargs)
        value, error = None, None
        while True:
            start = clock()
            try:
                if error is not None:
                    yielded = inner.throw(error)
                else:
                    yielded = inner.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder.timers[timer] += clock() - start
            value, error = None, None
            try:
                value = yield yielded
            except BaseException as raised:  # delivered into the inner one
                error = raised
    return wrapper


@contextmanager
def instrumented():
    """Wrap each layer's public entry points and install an ambient sink.

    Yields ``(recorder, sink)``. Runs that carry their own sink record
    into it instead of the ambient one; the caller merges both.
    """
    from repro.controlplane import Controller
    from repro.core import cost_report
    from repro.experiments import generate
    from repro.hivemind import run_hivemind
    from repro.hivemind.averager import MoshpitAverager
    from repro.hivemind.dht import DhtNetwork
    from repro.network import Fabric, build_topology
    from repro.orchestrator import RunCache
    from repro.orchestrator.jobs import job_key, result_from_record
    from repro.telemetry import Telemetry, use_telemetry

    recorder = Recorder()
    sink = Telemetry()

    def transfer(original):
        @functools.wraps(original)
        def wrapper(self, src, dst, nbytes, *args, **kwargs):
            recorder.counts["network.transfer_calls"] += 1
            recorder.fabrics[id(self)] = self
            return original(self, src, dst, nbytes, *args, **kwargs)
        return wrapper

    def on_epoch_end(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            decisions = original(self, *args, **kwargs)
            recorder.counts["controlplane.decisions"] += len(decisions)
            return decisions
        return wrapper

    with ExitStack() as stack:
        _patch_method(stack, Fabric, "transfer", transfer)
        _patch_method(stack, Controller, "on_epoch_end", on_epoch_end)
        _patch_method(stack, MoshpitAverager, "run_round",
                      lambda f: _timed_generator(
                          recorder, "hivemind.averager.rounds",
                          "hivemind.averager.busy_s", f))
        _patch_method(stack, DhtNetwork, "rpc",
                      lambda f: _timed_generator(
                          recorder, "hivemind.dht.rpcs",
                          "hivemind.dht.busy_s", f))
        _patch_method(stack, RunCache, "get",
                      lambda f: _timed(recorder, "orchestrator.get_s", f))
        _patch_method(stack, RunCache, "put",
                      lambda f: _timed(recorder, "orchestrator.put_s", f))
        for original, key in ((cost_report, "core.cost_reports"),
                              (job_key, "orchestrator.fingerprints"),
                              (build_topology, "network.topology_builds"),
                              (run_hivemind, "hivemind.run.runs"),
                              (generate, "experiments.reports")):
            _patch_everywhere(stack, original,
                              _counted(recorder, key, original))
        _patch_everywhere(stack, result_from_record,
                          _timed(recorder, "orchestrator.decode_s",
                                 result_from_record))
        stack.enter_context(use_telemetry(sink))
        yield recorder, sink


@contextmanager
def cache_fill():
    """Count and time ``RunCache.put`` over the block: a workload's
    set-up, where ``paper_warm`` fills its cache. Yields the recorder."""
    from repro.orchestrator import RunCache

    recorder = Recorder()
    with ExitStack() as stack:
        _patch_method(stack, RunCache, "put", lambda f: _counted(
            recorder, "orchestrator.cache_puts",
            _timed(recorder, "orchestrator.put_s", f)))
        yield recorder


def _registry_total(sinks, name: str) -> float:
    total = 0.0
    for sink in sinks:
        metric = sink.metrics.get(name)
        if metric is None:
            continue
        if metric.kind == "histogram":
            total += sum(metric.count(**dict(key))
                         for key in metric.label_keys())
        else:
            total += sum(value for __, value in metric.samples())
    return total


def _registry_max(sinks, name: str) -> float:
    values = [value for sink in sinks
              if (metric := sink.metrics.get(name)) is not None
              for __, value in metric.samples()]
    return max(values, default=0.0)


def layer_counts(recorder: Recorder, sinks: list, outcome) -> dict:
    """Merge wrapper counts, registry counters and orchestrator stats."""
    for sink in sinks:
        sink.sync_kernel_metrics()
    stats = outcome.orchestrator_stats
    registry = {
        "simulation.events": _registry_total(sinks, "sim_events_scheduled"),
        "simulation.processes": _registry_total(sinks,
                                                "sim_processes_spawned"),
        "simulation.queue_max": _registry_max(sinks,
                                              "sim_event_queue_depth_max"),
        "network.flows_done": _registry_total(sinks, "transfers_total"),
        "network.bytes": _registry_total(sinks, "transfer_bytes_total"),
        "network.aborts": _registry_total(sinks, "transfer_aborts_total"),
        "network.peak_flows": recorder.peak_flows(),
        "hivemind.run.epochs": _registry_total(sinks, "epoch_wall_seconds"),
        "hivemind.run.state_syncs": _registry_total(sinks,
                                                    "state_syncs_total"),
        "hivemind.averager.retries": _registry_total(
            sinks, "averaging_retries_total"),
        "hivemind.averager.degraded": _registry_total(
            sinks, "averaging_degraded_total"),
        "hivemind.dht.timeouts": _registry_total(sinks, "dht_timeouts_total"),
        "hivemind.dht.retries": _registry_total(sinks, "dht_retries_total"),
        "hivemind.matchmaking.rounds": _registry_total(
            sinks, "matchmaking_rounds_total"),
        "cloud.preemptions": _registry_total(sinks, "spot_preemptions_total"),
        "faults.injections": _registry_total(sinks, "fault_injections_total"),
        "orchestrator.memo_hits": stats.get("memo_hits", 0),
        "orchestrator.cache_hits": stats.get("cache_hits", 0),
        "orchestrator.cache_misses": stats.get("cache_misses", 0),
        "orchestrator.cache_puts": stats.get("cache_puts", 0),
        "orchestrator.executed": stats.get("executed", 0),
        "telemetry.spans": sum(len(sink.tracer.spans)
                               for sink in outcome.sinks),
        "telemetry.export_bytes": outcome.export_bytes,
    }
    counts = {name: float(recorder.counts.get(name, 0.0)) for name in COUNTS}
    counts.update({name: float(value) for name, value in registry.items()})
    return counts
