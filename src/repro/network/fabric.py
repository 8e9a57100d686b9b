"""Flow-level network simulation with max-min fair bandwidth sharing.

The fabric models every in-flight transfer as a fluid flow constrained
by three kinds of resources:

* the source NIC (all flows leaving a site share its egress capacity),
* the destination NIC (ingress),
* the path capacity between the two sites,

plus a per-flow ceiling from the TCP model: ``streams × window/RTT``
(and optionally an application-level per-stream cap, used to model
Hivemind's ~1.1 Gb/s serialization limit). Rates are assigned by
progressive filling (max-min fairness) and recomputed whenever a flow
starts or finishes, which is the standard fluid approximation for TCP
fair sharing.

Rebalancing is incremental: resource membership is maintained as flows
start and finish (rather than rebuilt from every active flow), static
resource capacities and resource-id tuples are cached, and all flow
arrivals within one simulated instant are coalesced into a single
progressive-filling pass scheduled at the end of the instant via
:meth:`Environment.defer`. The filling arithmetic itself is unchanged —
the same global increment sequence is applied in the same order — so
identically-seeded runs produce byte-identical traces and results
before and after the optimisation (see ``tests/test_fairness_incremental.py``
and ``tests/test_golden_determinism.py``).

Every completed transfer is recorded in a :class:`TrafficMeter` so the
cost model can later price egress per traffic class.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np
from dataclasses import dataclass, field
from typing import Optional

from ..simulation import Environment, Event
from ..telemetry import NULL_TELEMETRY
from .tcp import effective_ceiling_bps
from .topology import Site, Topology, classify_traffic

__all__ = ["Fabric", "Flow", "TrafficMeter", "TransferAborted"]

_EPS = 1e-9


class TransferAborted(Exception):
    """Raised into waiters of a transfer's completion event when the
    transfer is cancelled via :meth:`Fabric.abort` (round timeout, peer
    loss). The event is pre-defused, so only processes actively waiting
    on it observe the exception."""

    def __init__(self, flow: "Flow", reason: str = "aborted"):
        super().__init__(f"transfer {flow.flow_id} {reason} "
                         f"({flow.src.name}->{flow.dst.name})")
        self.flow = flow
        self.reason = reason


@dataclass(eq=False, slots=True)
class Flow:
    """One in-flight transfer (hashable by identity)."""

    flow_id: int
    src: Site
    dst: Site
    total_bytes: float
    remaining_bytes: float
    ceiling_bps: float
    done: Event
    tag: Optional[str] = None
    rate_bps: float = 0.0
    #: Extra shared resources (application channels) this flow uses.
    channels: tuple[str, ...] = ()
    #: Sim time the transfer was requested (for telemetry durations).
    started_s: float = 0.0
    #: Open telemetry span, when tracing is enabled.
    span: Optional[object] = None
    #: Shared-resource ids this flow occupies, resolved once at
    #: creation (the fabric interns the tuple per (src, dst, channels)).
    resource_ids: tuple[str, ...] = ()
    #: Set by :meth:`Fabric.abort`; admission and the debug generator
    #: path check it so a flow cancelled mid-propagation never starts.
    aborted: bool = False
    # Working state of the progressive-filling pass (_assign_rates).
    _fill_headroom: float = field(default=0.0, init=False, repr=False)
    _fill_active: bool = field(default=False, init=False, repr=False)
    _fill_entries: Optional[list] = field(default=None, init=False, repr=False)

    @property
    def resources(self) -> tuple[str, ...]:
        if self.resource_ids:
            return self.resource_ids
        if self.src.name == self.dst.name:
            return self.channels
        return (
            f"egress:{self.src.name}",
            f"ingress:{self.dst.name}",
            f"path:{'|'.join(sorted((self.src.name, self.dst.name)))}",
        ) + self.channels


class TrafficMeter:
    """Accumulates transferred bytes per site pair and traffic class."""

    def __init__(self):
        self.by_pair: dict[tuple[str, str], float] = defaultdict(float)
        self.by_class: dict[str, float] = defaultdict(float)
        #: Egress bytes leaving each site, keyed by site name.
        self.egress_by_site: dict[str, float] = defaultdict(float)
        # Traffic classification is a pure function of the (immutable)
        # site pair; memoised because record() runs once per transfer.
        self._class_memo: dict[tuple[str, str], str] = {}

    def record(self, src: Site, dst: Site, nbytes: float) -> None:
        if nbytes <= 0:
            return
        pair = (src.name, dst.name)
        self.by_pair[pair] += nbytes
        klass = self._class_memo.get(pair)
        if klass is None:
            klass = self._class_memo[pair] = classify_traffic(src, dst)
        self.by_class[klass] += nbytes
        self.egress_by_site[src.name] += nbytes

    @property
    def total_bytes(self) -> float:
        return sum(self.by_pair.values())

    def reset(self) -> None:
        self.by_pair.clear()
        self.by_class.clear()
        self.egress_by_site.clear()


@dataclass
class _ResourceState:
    """A shared resource: its static capacity and current member flows.

    Membership is maintained incrementally by
    :meth:`Fabric._register_flow` / :meth:`Fabric._unregister_flow`;
    the capacity is resolved from the topology once and cached.
    """

    capacity: float
    members: set = field(default_factory=set)


class _FillEntry:
    """Per-pass working state of one shared resource.

    ``members`` aliases the persistent :class:`_ResourceState` set (it
    is never mutated during a pass — saturation is tracked with
    per-flow flags and the unsaturated-member ``count``).
    """

    __slots__ = ("remaining", "count", "members")

    def __init__(self, remaining: float, count: int, members: set):
        self.remaining = remaining
        self.count = count
        self.members = members


class Fabric:
    """The shared network. Created once per simulated experiment."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        stream_cap_bps: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
        telemetry=None,
        trace_min_bytes: float = 4096.0,
    ):
        self.env = env
        self.topology = topology
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Direct tracer reference when tracing is live — flow start /
        #: finish are the busiest instrumented call sites, so they skip
        #: the facade passthrough.
        self._tracer = self.telemetry.tracer if self.telemetry.enabled else None
        #: Flows below this size are metered (all counters still fire)
        #: but get no per-flow span: control-plane messages like DHT
        #: RPC payloads are already spanned at the protocol layer, and
        #: they outnumber data flows by an order of magnitude.
        self.trace_min_bytes = trace_min_bytes
        self._bytes_counter = self.telemetry.counter(
            "transfer_bytes_total",
            "Bytes delivered by the fabric, by traffic class and tag",
        )
        self._flows_counter = self.telemetry.counter(
            "transfers_total", "Completed fabric transfers"
        )
        self._flow_seconds = self.telemetry.histogram(
            "flow_duration_seconds",
            "Wall time of each fabric transfer (request to last byte)",
        )
        #: Application-level per-stream throughput cap (bits/s); models
        #: serialization/CPU bottlenecks on top of TCP. ``None`` = no cap.
        self.stream_cap_bps = stream_cap_bps
        #: Lognormal sigma applied to each flow's ceiling — the "wide
        #: variation, likely due to network utilization" the paper saw
        #: in its microbenchmarks. 0 disables jitter.
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.jitter = jitter
        self._rng = rng
        self.meter = TrafficMeter()
        # Per-label-set metric children and interned track names: flow
        # completion runs once per transfer, so everything resolvable
        # ahead of time is cached here, keyed by (src, dst, tag).
        self._flow_children: dict[tuple[str, str, Optional[str]], tuple] = {}
        self._flow_seconds_child = None
        self._track_names: dict[str, str] = {}
        self._flows: set[Flow] = set()
        self._flow_ids = itertools.count()
        self._last_update = env.now
        self._generation = 0
        self._channel_caps: dict[str, float] = {}
        #: Shared resources with at least one member flow, maintained
        #: incrementally as flows start and finish.
        self._resources: dict[str, _ResourceState] = {}
        #: Static resource capacities (topology/channel lookups are the
        #: old per-rebalance hot spot); invalidated when the topology
        #: version moves or a channel is redefined.
        self._capacity_cache: dict[str, float] = {}
        self._topology_version = topology._version
        #: Per-(src, dst, channels) route cache: (src_site, dst_site,
        #: path, propagation_s, resource_ids, channel_ids). Cleared
        #: whenever the topology version moves.
        self._rid_cache: dict[tuple, tuple] = {}
        #: True while a coalesced refill is scheduled for this instant.
        self._refill_pending = False
        #: High-water mark of concurrent flows (reported by `repro bench`).
        self.peak_active_flows = 0
        #: Completion event -> flow, so :meth:`abort` can cancel a
        #: transfer given only the event :meth:`transfer` returned.
        self._event_flows: dict[Event, Flow] = {}
        #: Transfers cancelled via :meth:`abort` (reported by chaos runs).
        self.aborted_flows = 0
        self._aborts_counter = self.telemetry.counter(
            "transfer_aborts_total", "Fabric transfers cancelled mid-flight"
        )

    def define_channel(self, name: str, capacity_bps: float) -> None:
        """Register a shared application channel (e.g. a per-VM
        serialization budget that all averaging flows of that VM share)."""
        if capacity_bps <= 0:
            raise ValueError("channel capacity must be positive")
        self._channel_caps[name] = capacity_bps
        rid = f"channel:{name}"
        self._capacity_cache[rid] = capacity_bps
        state = self._resources.get(rid)
        if state is not None:
            state.capacity = capacity_bps

    # -- public API -------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        streams: int = 1,
        stream_cap_bps: Optional[float] = None,
        tag: Optional[str] = None,
        channels: tuple[str, ...] = (),
    ) -> Event:
        """Start a transfer of ``nbytes`` from ``src`` to ``dst``.

        Returns an event that fires (with the flow) once the last byte
        has arrived, after one-way propagation plus transmission time.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if self.topology._version != self._topology_version:
            self._refresh_topology_caches()
        entry = self._rid_cache.get((src, dst, channels))
        if entry is None:
            entry = self._resolve_transfer(src, dst, channels)
        src_site, dst_site, path, propagation, resource_ids, channel_ids = entry
        if stream_cap_bps is None:
            stream_cap_bps = self.stream_cap_bps
        ceiling = effective_ceiling_bps(path, streams, stream_cap_bps)
        if self.jitter > 0:
            if self._rng is None:
                self._rng = np.random.default_rng(0)
            ceiling *= float(np.exp(self._rng.normal(0.0, self.jitter)))
        done = Event(self.env)
        flow = Flow(
            flow_id=next(self._flow_ids),
            src=src_site,
            dst=dst_site,
            total_bytes=float(nbytes),
            remaining_bytes=float(nbytes),
            ceiling_bps=ceiling,
            done=done,
            tag=tag,
            channels=channel_ids,
            started_s=self.env.now,
            resource_ids=resource_ids,
        )
        self._event_flows[done] = flow
        if self._tracer is not None and nbytes >= self.trace_min_bytes:
            track = self._track_names.get(src_site.name)
            if track is None:
                track = self._track_names[src_site.name] = f"net:{src_site.name}"
            flow.span = self._tracer.begin(
                tag or "transfer", category="transfer", track=track,
                dst=dst_site.name, bytes=flow.total_bytes,
            )
        env = self.env
        tel = env._telemetry
        if tel is not None and tel.capture_processes:
            # Debug mode: keep the generator process so each flow shows
            # up as a span on the ``sim:processes`` track.
            env.process(self._run_flow(flow, propagation=propagation))
            return done
        # Fast path: admit the flow via a bare timer callback — same
        # simulated times and the same logical process tally, but no
        # generator, no ``_Initialize`` event, and no process-completion
        # event per flow.
        if tel is not None:
            tel.processes_spawned += 1
        if propagation > 0:
            timer = env.timeout(propagation)
            timer.callbacks.append(lambda _event, _flow=flow: self._admit_flow(_flow))
        else:
            env.defer(lambda _flow=flow: self._admit_flow(_flow))
        return done

    def _resolve_transfer(
        self, src: str, dst: str, channels: tuple[str, ...]
    ) -> tuple:
        """Resolve and cache everything static about a transfer route:
        endpoint sites, path spec, one-way propagation delay, and the
        interned resource-id tuples. Channel names are validated here,
        once per distinct (src, dst, channels) combination."""
        src_site = self.topology.get(src)
        dst_site = self.topology.get(dst)
        path = self.topology.path(src, dst)
        for channel in channels:
            if channel not in self._channel_caps:
                raise KeyError(f"undefined channel {channel!r}")
        channel_ids = tuple(f"channel:{name}" for name in channels)
        if src == dst:
            resource_ids = channel_ids
        else:
            resource_ids = (
                f"egress:{src}",
                f"ingress:{dst}",
                f"path:{'|'.join(sorted((src, dst)))}",
            ) + channel_ids
        entry = (
            src_site, dst_site, path, path.rtt_s / 2.0,
            resource_ids, channel_ids,
        )
        self._rid_cache[(src, dst, channels)] = entry
        return entry

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def abort(self, done: Event, reason: str = "aborted") -> bool:
        """Cancel an in-flight transfer by its completion event.

        Bytes already delivered are metered (they were really sent);
        the completion event fails with :class:`TransferAborted` but is
        *pre-defused*, so it is only observed by processes actively
        waiting on it — crucially including an already-triggered
        ``AllOf``/``AnyOf``, whose ``_observe`` no longer defuses late
        sub-events. Returns ``False`` if the transfer already finished
        (or was already aborted).
        """
        flow = self._event_flows.pop(done, None)
        if flow is None or done.triggered:
            return False
        self._advance_clock()
        flow.aborted = True
        if flow in self._flows:
            self._unregister_flow(flow)
            self._mark_dirty()
        delivered = flow.total_bytes - flow.remaining_bytes
        if delivered > 0:
            self.meter.record(flow.src, flow.dst, delivered)
        if self._tracer is not None and flow.span is not None:
            self._tracer.finish(flow.span)
        self.aborted_flows += 1
        self._aborts_counter.inc()
        tel = self.env._telemetry
        if tel is not None and not tel.capture_processes:
            # Close out the fast admission path's logical flow process
            # (the generator path tallies via the Process class).
            tel.processes_finished += 1
        done.fail(TransferAborted(flow, reason))
        done.defused = True
        return True

    def on_topology_change(self) -> None:
        """React to live topology mutation (fault injection).

        Accounts flow progress at the old rates, then queues a refill;
        the rebalance notices the bumped topology version and refreshes
        the route/capacity caches before re-running max-min filling.
        """
        self._advance_clock()
        self._mark_dirty()

    # -- flow lifecycle ---------------------------------------------------

    def _finish_flow(self, flow: Flow) -> None:
        """Meter a delivered flow and fire its completion event."""
        self._event_flows.pop(flow.done, None)
        self.meter.record(flow.src, flow.dst, flow.total_bytes)
        if self._tracer is not None:
            # One cache lookup per flow: (src, dst, tag) resolves the
            # traffic class and both bound counter children at once.
            child_key = (flow.src.name, flow.dst.name, flow.tag)
            children = self._flow_children.get(child_key)
            if children is None:
                traffic_class = classify_traffic(flow.src, flow.dst)
                children = self._flow_children[child_key] = (
                    self._bytes_counter.labels(
                        link_class=traffic_class, tag=flow.tag or "data"
                    ),
                    self._flows_counter.labels(link_class=traffic_class),
                )
            bytes_child, flows_child = children
            bytes_child.inc(flow.total_bytes)
            flows_child.inc()
            seconds_child = self._flow_seconds_child
            if seconds_child is None:
                seconds_child = self._flow_seconds_child = (
                    self._flow_seconds.labels()
                )
            seconds_child.observe(self.env._now - flow.started_s)
            if flow.span is not None:
                self._tracer.finish(flow.span)
        tel = self.env._telemetry
        if tel is not None and not tel.capture_processes:
            # Close out the logical flow process of the fast admission
            # path (the generator path tallies via the Process class).
            tel.processes_finished += 1
        flow.done.succeed(flow)

    def _admit_flow(self, flow: Flow) -> None:
        """Fast-path flow admission after propagation delay."""
        if flow.aborted:
            return
        if flow.remaining_bytes <= 0:
            self._finish_flow(flow)
            return
        self._advance_clock()
        self._register_flow(flow)
        self._mark_dirty()

    def _run_flow(self, flow: Flow, propagation: float):
        if propagation > 0:
            yield self.env.timeout(propagation)
        if flow.aborted:
            return
        if flow.remaining_bytes <= 0:
            self._finish_flow(flow)
            return
        self._advance_clock()
        self._register_flow(flow)
        self._mark_dirty()
        try:
            yield flow.done
        except TransferAborted:
            return

    def _register_flow(self, flow: Flow) -> None:
        """Add a flow to the active set and its resources' member sets."""
        self._flows.add(flow)
        if len(self._flows) > self.peak_active_flows:
            self.peak_active_flows = len(self._flows)
        resources = self._resources
        for rid in flow.resource_ids:
            state = resources.get(rid)
            if state is None:
                state = resources[rid] = _ResourceState(self._capacity_of(rid))
            state.members.add(flow)

    def _unregister_flow(self, flow: Flow) -> None:
        """Remove a finished flow from the active set and its resources."""
        self._flows.discard(flow)
        resources = self._resources
        for rid in flow.resource_ids:
            state = resources.get(rid)
            if state is not None:
                state.members.discard(flow)
                if not state.members:
                    del resources[rid]

    def _capacity_of(self, rid: str) -> float:
        cap = self._capacity_cache.get(rid)
        if cap is None:
            cap = self._capacity_cache[rid] = self._resource_capacity(rid)
        return cap

    def _mark_dirty(self) -> None:
        """Invalidate outstanding completion timers and queue a refill.

        The generation bump happens immediately — exactly when the old
        eager rebalance would have invalidated timers — while the
        progressive-filling pass is deferred to the end of the current
        instant, coalescing all same-instant arrivals and departures
        into a single pass over the final flow set.
        """
        self._generation += 1
        if not self._refill_pending:
            self._refill_pending = True
            self.env.defer(self._deferred_refill)

    def _deferred_refill(self) -> None:
        self._refill_pending = False
        self._advance_clock()
        self._rebalance()

    def _advance_clock(self) -> None:
        """Account progress of all flows since the last rate change."""
        elapsed = self.env.now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining_bytes -= flow.rate_bps * elapsed / 8.0
        self._last_update = self.env.now

    def _rebalance(self) -> None:
        """Recompute max-min fair rates and reschedule completion."""
        if self.topology._version != self._topology_version:
            self._refresh_topology_caches()
        self._assign_rates()
        self._generation += 1
        self._schedule_next_completion()

    def _refresh_topology_caches(self) -> None:
        self._topology_version = self.topology._version
        self._capacity_cache.clear()
        self._rid_cache.clear()
        for rid, state in self._resources.items():
            state.capacity = self._capacity_of(rid)

    def _assign_rates(self) -> None:
        """Progressive filling over the incrementally-maintained resources.

        Arithmetically identical to a from-scratch max-min computation:
        the same sequence of global fill increments is applied to each
        flow in the same order (the per-flow ceiling is folded into a
        headroom counter, which is the private single-member resource of
        the reference algorithm — ``capacity / 1`` and ``capacity -
        increment * 1`` are bitwise-exact identities). Only the data
        structures differ: membership sets are reused rather than
        rebuilt, and saturation freezes flows via flags and unsaturated
        member counts instead of set discards across every resource.
        """
        flows = self._flows
        if not flows:
            return
        resources = self._resources
        if len(flows) == 1:
            # One flow: its rate is the min of its ceiling and its
            # resources' capacities (a single fill round of the general
            # algorithm, with ``0.0 + x == x`` for the accumulation).
            (flow,) = flows
            rate = flow.ceiling_bps
            for rid in flow.resource_ids:
                capacity = resources[rid].capacity
                if capacity < rate:
                    rate = capacity
            flow.rate_bps = rate
            return
        for flow in flows:
            flow.rate_bps = 0.0
            flow._fill_headroom = flow.ceiling_bps
            flow._fill_active = True
            flow._fill_entries = []
        entries = []
        for state in resources.values():
            members = state.members
            entry = _FillEntry(state.capacity, len(members), members)
            entries.append(entry)
            for flow in members:
                flow._fill_entries.append(entry)
        active = list(flows)
        while active:
            increment = active[0]._fill_headroom
            for flow in active:
                headroom = flow._fill_headroom
                if headroom < increment:
                    increment = headroom
            for entry in entries:
                share = entry.remaining / entry.count
                if share < increment:
                    increment = share
            threshold = _EPS * (increment if increment > 1.0 else 1.0)
            saturated_entries = None
            for entry in entries:
                entry.remaining -= increment * entry.count
                if entry.remaining <= threshold:
                    if saturated_entries is None:
                        saturated_entries = [entry]
                    else:
                        saturated_entries.append(entry)
            newly = []
            for flow in active:
                flow.rate_bps += increment
                headroom = flow._fill_headroom - increment
                flow._fill_headroom = headroom
                if headroom <= threshold:
                    flow._fill_active = False
                    newly.append(flow)
            if saturated_entries is not None:
                for entry in saturated_entries:
                    for flow in entry.members:
                        if flow._fill_active:
                            flow._fill_active = False
                            newly.append(flow)
            if not newly:
                # Numerical safety: freeze everything to guarantee progress.
                break
            for flow in newly:
                for entry in flow._fill_entries:
                    entry.count -= 1
            active = [f for f in active if f._fill_active]
            entries = [e for e in entries if e.count > 0]

    def _resource_capacity(self, resource_id: str) -> float:
        kind, __, rest = resource_id.partition(":")
        if kind == "egress" or kind == "ingress":
            return self.topology.get(rest).nic_bps
        if kind == "path":
            a, __, b = rest.partition("|")
            return self.topology.path(a, b).capacity_bps
        if kind == "channel":
            return self._channel_caps[rest]
        raise ValueError(f"unknown resource {resource_id!r}")

    def _schedule_next_completion(self) -> None:
        if not self._flows:
            return
        horizons = [
            flow.remaining_bytes * 8.0 / flow.rate_bps
            for flow in self._flows
            if flow.rate_bps > 0
        ]
        if not horizons:
            # Every active flow is rate-starved (a partitioned path can
            # floor rates to a crawl that underflows to zero); progress
            # resumes on the next topology change or flow departure.
            return
        horizon = min(horizons)
        # Clamp so the timer always advances the clock: at large
        # simulation times a tiny dt can round away entirely, which
        # would stall completion forever.
        horizon = max(horizon, max(abs(self.env.now), 1.0) * 1e-12, 1e-9)
        generation = self._generation

        def on_timer(event: Event) -> None:
            if generation != self._generation:
                return
            self._complete_due_flows()

        timer = self.env.timeout(max(horizon, 0.0))
        timer.callbacks.append(on_timer)

    def _complete_due_flows(self) -> None:
        self._advance_clock()
        finished = [
            flow
            for flow in self._flows
            # A flow is done when the residue is a rounding artifact or
            # would drain within a microsecond at its current rate.
            if flow.remaining_bytes
            <= max(
                _EPS * max(1.0, flow.total_bytes),
                flow.rate_bps * 1e-6 / 8.0,
            )
        ]
        for flow in finished:
            self._unregister_flow(flow)
            flow.remaining_bytes = 0.0
            self._finish_flow(flow)
        self._mark_dirty()
