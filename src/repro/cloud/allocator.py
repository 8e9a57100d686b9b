"""Spot fleet allocation with SkyPilot-style automatic re-provisioning.

A :class:`SpotFleet` maintains a set of VM *slots*, each pinned to a
network site and an instance type. When the interruption model
terminates a VM, the fleet provisions a replacement after a startup
delay (seconds to minutes; manual deployment took the paper up to ten
minutes). Training-state resynchronization after the reboot is modelled
explicitly by the run loop (``sync_state`` in ``hivemind.run``), not by
the fleet. Observers — e.g. the training
orchestrator — subscribe to up/down transitions.

Beyond the sampled per-VM interruptions, slots can be *force-preempted*
(:meth:`SpotFleet.preempt`) by the fault injector, and a
``zone_correlation`` probability models correlated capacity crunches:
each preemption may cascade to other live VMs in the same zone.

The fleet also keeps a full availability timeline so experiments can
report the achieved uptime fraction, which is what the paper's
"interruption frequency acts as a throughput penalty" rule is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..simulation import Environment, Event, Interrupt
from ..telemetry import NULL_TELEMETRY
from .instances import InstanceType
from .spot import InterruptionModel

__all__ = ["SpotFleet", "VmSlot", "FleetEvent"]


@dataclass(frozen=True)
class FleetEvent:
    """One up/down transition of a fleet slot."""

    time_s: float
    slot_index: int
    site: str
    up: bool


@dataclass(eq=False)
class VmSlot:
    """One logical VM the fleet keeps alive."""

    index: int
    site: str
    instance_type: InstanceType
    spot: bool = True
    up: bool = False
    interruptions: int = 0


class SpotFleet:
    """Keeps ``len(slots)`` VMs running, replacing terminated ones."""

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        slots: list[tuple[str, InstanceType]],
        interruption_model: Optional[InterruptionModel] = None,
        startup_s: float = 120.0,
        spot: bool = True,
        telemetry=None,
        allow_forced: bool = False,
        zone_correlation: float = 0.0,
        zone_of: Optional[Callable[[str], Optional[str]]] = None,
    ):
        if not 0.0 <= zone_correlation <= 1.0:
            raise ValueError("zone_correlation must be in [0, 1]")
        self.env = env
        self.rng = rng
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._preemption_counter = self.telemetry.counter(
            "spot_preemptions_total", "Spot VM terminations, by site"
        )
        self._downtime_counter = self.telemetry.counter(
            "spot_downtime_seconds_total",
            "Slot-seconds lost to preemption and re-provisioning",
        )
        self._down_spans: dict[int, object] = {}
        self.interruption_model = interruption_model
        self.startup_s = startup_s
        self.spot = spot
        #: When True, slots without a sampled interruption stay
        #: preemptible (they park on a never-firing event instead of
        #: ending their process) so :meth:`preempt` can take them down.
        self.allow_forced = allow_forced
        #: Probability that a preemption cascades to each other live VM
        #: in the same zone (correlated capacity crunch).
        self.zone_correlation = zone_correlation
        self._zone_of = zone_of
        self.slots = [
            VmSlot(index=i, site=site, instance_type=itype, spot=spot)
            for i, (site, itype) in enumerate(slots)
        ]
        self.events: list[FleetEvent] = []
        self._listeners: list[Callable[[FleetEvent], None]] = []
        #: Forced preemptions delivered (by the injector or cascades).
        self.forced_interruptions = 0
        #: Slot indices with an Interrupt queued but not yet handled —
        #: guards against double-interrupting one slot in one instant.
        self._forced_pending: set[int] = set()
        #: Shared never-firing event that invulnerable-but-forcible
        #: slots park on.
        self._never = Event(env)
        self._procs = [env.process(self._run_slot(slot))
                       for slot in self.slots]

    # -- observation ------------------------------------------------------

    def subscribe(self, listener: Callable[[FleetEvent], None]) -> None:
        self._listeners.append(listener)

    @property
    def live_count(self) -> int:
        return sum(1 for slot in self.slots if slot.up)

    @property
    def total_interruptions(self) -> int:
        return sum(slot.interruptions for slot in self.slots)

    def uptime_fraction(self, horizon_s: float) -> float:
        """Average fraction of slot-time spent up over ``[0, horizon]``."""
        if horizon_s <= 0 or not self.slots:
            return 0.0
        up_since: dict[int, float] = {}
        total_up = 0.0
        for event in self.events:
            when = min(event.time_s, horizon_s)
            if event.up:
                up_since[event.slot_index] = when
            elif event.slot_index in up_since:
                total_up += when - up_since.pop(event.slot_index)
        for started in up_since.values():
            total_up += max(horizon_s - started, 0.0)
        return total_up / (horizon_s * len(self.slots))

    def hourly_cost(self) -> float:
        """Aggregate VM cost per hour while all slots are up."""
        return sum(
            slot.instance_type.price_per_hour(spot=slot.spot) for slot in self.slots
        )

    # -- lifecycle ---------------------------------------------------------

    def _emit(self, slot: VmSlot, up: bool) -> None:
        slot.up = up
        event = FleetEvent(time_s=self.env.now, slot_index=slot.index,
                           site=slot.site, up=up)
        self.events.append(event)
        if self.telemetry.enabled:
            if up:
                span = self._down_spans.pop(slot.index, None)
                if span is not None:
                    self.telemetry.end_span(span)
                    self._downtime_counter.inc(
                        self.env.now - span.start_s, site=slot.site
                    )
            else:
                self.telemetry.instant(
                    "preemption", category="spot", track=slot.site,
                    slot=slot.index,
                )
                self._down_spans[slot.index] = self.telemetry.begin_span(
                    "down", category="spot", track=slot.site,
                    slot=slot.index,
                )
        for listener in self._listeners:
            listener(event)

    def preempt(self, site: str) -> int:
        """Force-preempt every live VM at ``site`` (fault injection).

        Returns the number of slots taken down. Requires the fleet to
        have been built with ``allow_forced=True`` for slots whose
        sampled lifetime is infinite; slots mid-reboot are skipped.
        """
        forced = 0
        for slot in self.slots:
            if slot.site == site and self._force(slot):
                forced += 1
        return forced

    def _force(self, slot: VmSlot) -> bool:
        """Interrupt one slot's lifetime wait, if it is actually up and
        not already being forced this instant (a zone cascade triggered
        by the slot's own preemption must not interrupt its reboot
        timeout)."""
        if not slot.up or slot.index in self._forced_pending:
            return False
        proc = self._procs[slot.index]
        if not proc.is_alive:
            return False
        self._forced_pending.add(slot.index)
        proc.interrupt("forced-preemption")
        return True

    def _maybe_cascade(self, origin: VmSlot) -> None:
        """Correlated capacity crunch: each other live VM in the
        origin's zone is independently preempted with probability
        ``zone_correlation``."""
        if self.zone_correlation <= 0.0 or self._zone_of is None:
            return
        zone = self._zone_of(origin.site)
        if zone is None:
            return
        for slot in self.slots:
            if slot.index == origin.index or not slot.up:
                continue
            if self._zone_of(slot.site) != zone:
                continue
            if float(self.rng.random()) < self.zone_correlation:
                self._force(slot)

    def _run_slot(self, slot: VmSlot):
        first_boot = True
        while True:
            if not first_boot:
                yield self.env.timeout(self.startup_s)
            first_boot = False
            self._emit(slot, up=True)
            invulnerable = (
                self.interruption_model is None
                or not slot.spot
                or self.interruption_model.monthly_rate == 0
            )
            if invulnerable and not self.allow_forced:
                return  # Nothing will ever take this VM down.
            lifetime: Optional[float] = None
            if not invulnerable:
                lifetime = self.interruption_model.sample_interruption_s(
                    self.rng, start_s=self.env.now
                )
                if lifetime == float("inf"):
                    lifetime = None
            if lifetime is None and not self.allow_forced:
                return
            try:
                if lifetime is None:
                    # Forcible but otherwise immortal: park until the
                    # injector preempts this slot (the shared event
                    # never fires).
                    yield self._never
                else:
                    yield self.env.timeout(lifetime)
            except Interrupt:
                self._forced_pending.discard(slot.index)
                self.forced_interruptions += 1
            slot.interruptions += 1
            self._preemption_counter.inc(site=slot.site)
            self._emit(slot, up=False)
            self._maybe_cascade(slot)
