"""Flow-level network simulation with max-min fair bandwidth sharing.

The fabric models every in-flight transfer as a fluid flow constrained
by three kinds of resources:

* the source NIC (all flows leaving a site share its egress capacity),
* the destination NIC (ingress),
* the path capacity between the two sites,

plus a per-flow ceiling from the TCP model, ``streams × window/RTT``,
and any named application channels the flow joins (the averager models
Hivemind's ~1.1 Gb/s per-VM serialization budget as shared
``avg-out:``/``avg-in:`` channels). Rates are assigned by progressive
filling (max-min fairness) and recomputed whenever a flow starts or
finishes, which is the standard fluid approximation for TCP fair
sharing.

Rebalancing is incremental: resource membership is maintained as flows
start and finish (rather than rebuilt from every active flow), each
route caches the tuple of its resource states with their static
capacities, and all flow arrivals within one simulated instant are
coalesced into a single progressive-filling pass scheduled at the end
of the instant via :meth:`Environment.defer`. The filling arithmetic
itself is unchanged — the same global increment sequence is applied in
the same order — so identically-seeded runs produce byte-identical traces and results
before and after the optimisation (see ``tests/test_fairness_incremental.py``
and ``tests/test_golden_determinism.py``).

The per-flow lifecycle creates no reference cycles, so reference
counting frees each flow and its completion event as soon as the last
waiter drops them, and the cyclic collector has nothing per-flow to
trace. The flow's completion event is dropped from the flow once it is
triggered (the event's value, or :attr:`TransferAborted.flow`, still
carries the flow); the arrival timer carries the flow as its value and
fires one callback shared by all flows; and the progressive-filling
working state (``remaining``, ``count``) lives on the persistent
:class:`_ResourceState` objects that each route interns, not in per-flow
lists. On a 96-peer, two-region conv run (37,851 transfers; 2-core
host, Python 3.11) this took cyclic collection from 0.24–0.41 s in 685
collections to 0.12–0.20 s in 446 per run, and the cyclic garbage left
after the run from 183,043 objects to 30,087, none of them flows or
events (``tests/test_network_fabric.py`` checks the latter).

Every completed transfer is recorded in a :class:`TrafficMeter` so the
cost model can later price egress per traffic class.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from ..simulation import Environment, Event, Timeout
from ..telemetry import NULL_TELEMETRY
from .tcp import effective_ceiling_bps
from .topology import PathSpec, Site, Topology, classify_traffic

__all__ = ["Fabric", "Flow", "TrafficMeter", "TransferAborted"]

_EPS = 1e-9

#: Flows below this size are metered (all counters still fire) but get
#: no per-flow span: control-plane messages like DHT RPC payloads are
#: already spanned at the protocol layer, and they outnumber data flows
#: by an order of magnitude.
_TRACE_MIN_BYTES = 4096.0


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
    #: Completion event; dropped once it is triggered, so a finished
    #: flow and its event (whose value is the flow) form no cycle.
    done: Optional[Event]
    tag: Optional[str] = None
    rate_bps: float = 0.0
    #: Sim time the transfer was requested (for telemetry durations).
    started_s: float = 0.0
    #: Open telemetry span, when tracing is enabled.
    span: Optional[object] = None
    #: Shared resources this flow occupies: the route's interned tuple
    #: of persistent :class:`_ResourceState` objects.
    states: tuple["_ResourceState", ...] = ()
    #: Set by :meth:`Fabric.abort`; admission checks it so a flow
    #: cancelled mid-propagation never starts.
    aborted: bool = False
    # Working state of the progressive-filling pass (_assign_rates).
    _fill_headroom: float = field(default=0.0, init=False, repr=False)
    _fill_active: bool = field(default=False, init=False, repr=False)


class TrafficMeter:
    """Accumulates transferred bytes per site pair and traffic class."""

    def __init__(self):
        self.by_pair: dict[tuple[str, str], float] = defaultdict(float)
        self.by_class: dict[str, float] = defaultdict(float)
        #: Bytes per transfer tag (``averaging``, ``sync``, ``dht``, ...);
        #: untagged transfers count under ``None``.
        self.by_tag: dict[Optional[str], float] = defaultdict(float)
        #: Egress bytes leaving each site, keyed by site name.
        self.egress_by_site: dict[str, float] = defaultdict(float)
        # Traffic classification is a pure function of the (immutable)
        # site pair; memoised because record() runs once per transfer.
        self._class_memo: dict[tuple[str, str], str] = {}

    def record(
        self, src: Site, dst: Site, nbytes: float, tag: Optional[str] = None
    ) -> None:
        if nbytes <= 0:
            return
        pair = (src.name, dst.name)
        self.by_pair[pair] += nbytes
        self.by_tag[tag] += nbytes
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
        self.by_tag.clear()
        self.egress_by_site.clear()


class _ResourceState:
    """A shared resource: its static capacity, its current member flows
    and its working state in the progressive-filling pass.

    One state exists per resource id for the fabric's lifetime. Routes
    intern the tuple of their states, so membership is maintained by
    :meth:`Fabric._register_flow` / :meth:`Fabric._unregister_flow`
    without a lookup per resource, and ``remaining`` / ``count`` are
    reset in place by each pass of :meth:`Fabric._assign_rates`.
    """

    __slots__ = ("capacity", "members", "rid", "remaining", "count")

    def __init__(self, capacity: float, rid: str = ""):
        self.capacity = capacity
        self.members: set = set()
        self.rid = rid
        #: Unallocated capacity and unsaturated member count (fill pass).
        self.remaining = 0.0
        self.count = 0


class _Route:
    """Everything static about a transfer route, resolved once per
    (src, dst, channels) and topology version."""

    __slots__ = ("src", "dst", "path", "propagation_s", "states", "ceilings")

    def __init__(self, src: Site, dst: Site, path: PathSpec,
                 propagation_s: float, states: tuple[_ResourceState, ...]):
        self.src = src
        self.dst = dst
        self.path = path
        self.propagation_s = propagation_s
        self.states = states
        #: Per-flow TCP ceiling by stream count.
        self.ceilings: dict[int, float] = {}


class Fabric:
    """The shared network. Created once per simulated experiment."""

    def __init__(self, env: Environment, topology: Topology, telemetry=None):
        self.env = env
        self.topology = topology
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Direct tracer reference when tracing is live — flow start /
        #: finish are the busiest instrumented call sites, so they skip
        #: the facade passthrough.
        self._tracer = self.telemetry.tracer if self.telemetry.enabled else None
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
        self.meter = TrafficMeter()
        # Per-label-set metric children and interned track names: flow
        # completion runs once per transfer, so everything resolvable
        # ahead of time is cached here, keyed by (src, dst, tag).
        self._flow_children: dict[tuple[str, str, Optional[str]], tuple] = {}
        self._flow_seconds_child = None
        self._track_names: dict[str, str] = {}
        #: Active flows in admission order (a dict used as an ordered
        #: set): flows that finish at the same instant complete in this
        #: order, independent of where they sit in memory.
        self._flows: dict[Flow, None] = {}
        self._flow_ids = itertools.count()
        self._last_update = env.now
        self._generation = 0
        self._channel_caps: dict[str, float] = {}
        #: Every resource state ever used, by resource id. States are
        #: never dropped: routes and in-flight flows hold them directly,
        #: and capacities are refreshed here when the topology moves or
        #: a channel is redefined.
        self._states: dict[str, _ResourceState] = {}
        #: Shared resources with at least one member flow, maintained
        #: incrementally as flows start and finish.
        self._resources: dict[str, _ResourceState] = {}
        self._topology_version = topology._version
        #: Per-(src, dst, channels) :class:`_Route` cache. Cleared
        #: whenever the topology version moves.
        self._rid_cache: dict[tuple, _Route] = {}
        #: True while a coalesced refill is scheduled for this instant.
        self._refill_pending = False
        #: High-water mark of concurrent flows (``RunResult.peak_active_flows``).
        self.peak_active_flows = 0
        #: Completion event -> flow, so :meth:`abort` can cancel a
        #: transfer given only the event :meth:`transfer` returned.
        self._event_flows: dict[Event, Flow] = {}
        #: Transfers cancelled via :meth:`abort` (reported by chaos runs).
        self.aborted_flows = 0
        self._aborts_counter = self.telemetry.counter(
            "transfer_aborts_total", "Fabric transfers cancelled mid-flight"
        )
        #: Arrival-timer callback shared by every flow (the timer's
        #: value is the flow), bound once rather than per transfer.
        self._on_arrival = self._arrive

    def define_channel(self, name: str, capacity_bps: float) -> None:
        """Register a shared application channel (e.g. a per-VM
        serialization budget that all averaging flows of that VM share)."""
        if capacity_bps <= 0:
            raise ValueError("channel capacity must be positive")
        self._channel_caps[name] = capacity_bps
        state = self._states.get(f"channel:{name}")
        if state is not None:
            state.capacity = capacity_bps

    # -- public API -------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        streams: int = 1,
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
        route = self._rid_cache.get((src, dst, channels))
        if route is None:
            route = self._resolve_transfer(src, dst, channels)
        ceiling = route.ceilings.get(streams)
        if ceiling is None:
            ceiling = route.ceilings[streams] = effective_ceiling_bps(
                route.path, streams
            )
        env = self.env
        done = Event(env)
        flow = Flow(
            flow_id=next(self._flow_ids),
            src=route.src,
            dst=route.dst,
            total_bytes=float(nbytes),
            remaining_bytes=float(nbytes),
            ceiling_bps=ceiling,
            done=done,
            tag=tag,
            started_s=env._now,
            states=route.states,
        )
        self._event_flows[done] = flow
        if self._tracer is not None and nbytes >= _TRACE_MIN_BYTES:
            src_name = route.src.name
            track = self._track_names.get(src_name)
            if track is None:
                track = self._track_names[src_name] = f"net:{src_name}"
            flow.span = self._tracer.begin(
                tag or "transfer", category="transfer", track=track,
                dst=route.dst.name, bytes=flow.total_bytes,
            )
        tel = env._telemetry
        # Admit the flow via a bare timer callback: no generator, no
        # ``_Initialize`` event and no process-completion event per
        # flow, but each flow still counts as one logical process.
        if tel is not None:
            tel.processes_spawned += 1
        Timeout(env, route.propagation_s, flow).callbacks.append(self._on_arrival)
        return done

    def _resolve_transfer(
        self, src: str, dst: str, channels: tuple[str, ...]
    ) -> _Route:
        """Resolve and cache everything static about a transfer route:
        endpoint sites, path spec, one-way propagation delay, and the
        interned tuple of resource states. Channel names are validated
        here, once per distinct (src, dst, channels) combination."""
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
        states = []
        for rid in dict.fromkeys(resource_ids):
            state = self._states.get(rid)
            if state is None:
                state = self._states[rid] = _ResourceState(
                    self._resource_capacity(rid), rid
                )
            states.append(state)
        route = _Route(
            src_site, dst_site, path, max(path.rtt_s / 2.0, 0.0), tuple(states)
        )
        self._rid_cache[(src, dst, channels)] = route
        return route

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
            self.meter.record(flow.src, flow.dst, delivered, flow.tag)
        if self._tracer is not None and flow.span is not None:
            self._tracer.finish(flow.span)
        self.aborted_flows += 1
        self._aborts_counter.inc()
        tel = self.env._telemetry
        if tel is not None:
            # Close out the flow's logical process.
            tel.processes_finished += 1
        flow.done = None
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
        done = flow.done
        flow.done = None
        self._event_flows.pop(done, None)
        self.meter.record(flow.src, flow.dst, flow.total_bytes, flow.tag)
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
        if tel is not None:
            # Close out the flow's logical process.
            tel.processes_finished += 1
        done.succeed(flow)

    def _arrive(self, timer: Event) -> None:
        self._admit_flow(timer._value)

    def _admit_flow(self, flow: Flow) -> None:
        """Admit a flow once its propagation delay has passed."""
        if flow.aborted:
            return
        if flow.remaining_bytes <= 0:
            self._finish_flow(flow)
            return
        self._advance_clock()
        self._register_flow(flow)
        self._mark_dirty()

    def _register_flow(self, flow: Flow) -> None:
        """Add a flow to the active set and its resources' member sets."""
        self._flows[flow] = None
        if len(self._flows) > self.peak_active_flows:
            self.peak_active_flows = len(self._flows)
        resources = self._resources
        for state in flow.states:
            members = state.members
            if not members:
                resources[state.rid] = state
            members.add(flow)

    def _unregister_flow(self, flow: Flow) -> None:
        """Remove a finished flow from the active set and its resources."""
        self._flows.pop(flow, None)
        resources = self._resources
        for state in flow.states:
            members = state.members
            members.discard(flow)
            if not members:
                del resources[state.rid]

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
        self._rid_cache.clear()
        for state in self._states.values():
            state.capacity = self._resource_capacity(state.rid)

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
        if len(flows) == 1:
            # One flow: its rate is the min of its ceiling and its
            # resources' capacities (a single fill round of the general
            # algorithm, with ``0.0 + x == x`` for the accumulation).
            (flow,) = flows
            rate = flow.ceiling_bps
            for state in flow.states:
                capacity = state.capacity
                if capacity < rate:
                    rate = capacity
            flow.rate_bps = rate
            return
        for flow in flows:
            flow.rate_bps = 0.0
            flow._fill_headroom = flow.ceiling_bps
            flow._fill_active = True
        states = list(self._resources.values())
        for state in states:
            state.remaining = state.capacity
            state.count = len(state.members)
        active = list(flows)
        while active:
            increment = active[0]._fill_headroom
            for flow in active:
                headroom = flow._fill_headroom
                if headroom < increment:
                    increment = headroom
            for state in states:
                share = state.remaining / state.count
                if share < increment:
                    increment = share
            threshold = _EPS * (increment if increment > 1.0 else 1.0)
            saturated = None
            for state in states:
                state.remaining -= increment * state.count
                if state.remaining <= threshold:
                    if saturated is None:
                        saturated = [state]
                    else:
                        saturated.append(state)
            newly = []
            for flow in active:
                flow.rate_bps += increment
                headroom = flow._fill_headroom - increment
                flow._fill_headroom = headroom
                if headroom <= threshold:
                    flow._fill_active = False
                    newly.append(flow)
            if saturated is not None:
                for state in saturated:
                    for flow in state.members:
                        if flow._fill_active:
                            flow._fill_active = False
                            newly.append(flow)
            if not newly:
                # Numerical safety: freeze everything to guarantee progress.
                break
            for flow in newly:
                for state in flow.states:
                    state.count -= 1
            active = [f for f in active if f._fill_active]
            states = [e for e in states if e.count > 0]

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
