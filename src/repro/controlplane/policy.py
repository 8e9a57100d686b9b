"""Control policies: pure decision functions over run observations.

The paper's Section 9 outlook — "auto-migrated, decentralized DL
training for the best spot prices in the world" — needs something to
*make* the migration calls. A policy is that something: a frozen
dataclass whose :meth:`decide` maps one :class:`Observation` (what the
run looked like at an epoch boundary) to a list of :class:`Action`
proposals. Policies hold no mutable state and consult no wall clocks or
unseeded randomness, so identically-seeded adaptive runs replay byte
for byte — the same determinism bar as the fault injector and the
orchestrator cache.

Built-in policies (also the ``repro control`` registry):

* :class:`MigrationPolicy` — move peers off expensive or flappy
  locations onto cheaper provisioned spares (Table 1 price ratios, or
  the preemption counter crossing a threshold);
* :class:`TbsPolicy` — grow the target batch size when measured
  granularity drifts below ``MIN_USEFUL_GRANULARITY`` (Section 8: below
  1, additional peers stop paying for themselves);
* :class:`ScalingPolicy` — bring spare peers up when the planner's
  doubling-speedup rule says scaling pays, drop peers when granularity
  says it no longer does;
* :class:`AdaptivePolicy` — the composite default: placement first,
  then batch size, then peer count.

All four are registered with the orchestrator fingerprint, so a policy
(or its absence) is part of the run's cache address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..core.granularity import best_speedup_when_doubling
from ..core.planner import MIN_USEFUL_GRANULARITY
from ..network import location_of

__all__ = [
    "Action",
    "AdaptivePolicy",
    "Decision",
    "MigrationPolicy",
    "Observation",
    "POLICIES",
    "ScalingPolicy",
    "TbsPolicy",
    "get_policy",
]


@dataclass(frozen=True)
class Observation:
    """Everything a policy may look at for one epoch-boundary decision."""

    time_s: float
    epoch: int
    target_batch_size: int
    calc_s: float
    comm_s: float
    samples: int
    granularity: float
    #: Sites currently contributing, in config order.
    active_sites: tuple[str, ...]
    #: Provisioned spares a policy may activate (free standby slots).
    standby_sites: tuple[str, ...]
    #: Sites the controller will never migrate or scale away (the DHT
    #: coordinator).
    pinned_sites: tuple[str, ...]
    #: Location -> current spot price ($/h) at ``time_s``.
    prices_per_h: dict[str, float]
    #: Location -> cumulative preemption count so far.
    preemptions: dict[str, int]

    def price_of(self, site: str) -> Optional[float]:
        return self.prices_per_h.get(location_of(site))


@dataclass(frozen=True)
class Action:
    """One proposed control move; validated and applied by the controller."""

    kind: str  # "migrate" | "scale_up" | "scale_down" | "set_tbs"
    site: Optional[str] = None
    target: Optional[str] = None
    tbs: Optional[int] = None
    reason: str = ""


@dataclass(frozen=True)
class Decision:
    """One controller log entry: an action plus when/why/what happened."""

    time_s: float
    epoch: int
    kind: str
    site: Optional[str] = None
    target: Optional[str] = None
    tbs: Optional[int] = None
    reason: str = ""
    #: "applied" or "rejected:<why>".
    outcome: str = "applied"


@dataclass(frozen=True)
class MigrationPolicy:
    """Move peers off expensive or flappy locations onto cheaper spares.

    A peer migrates when the cheapest free standby location undercuts
    its current spot price by at least ``price_ratio`` (the hysteresis
    band that stops diurnal ping-pong), or when its location has been
    preempted ``preemption_threshold`` times and a no-more-expensive,
    less flappy spare exists.
    """

    price_ratio: float = 1.25
    preemption_threshold: int = 2
    max_per_epoch: int = 1

    def decide(self, obs: Observation) -> list[Action]:
        actions: list[Action] = []
        taken: set[str] = set()
        # Most expensive peers first; name-ordered within a price tie.
        order = sorted(
            obs.active_sites,
            key=lambda s: (-(obs.price_of(s) or 0.0), s),
        )
        for site in order:
            if len(actions) >= self.max_per_epoch:
                break
            if site in obs.pinned_sites:
                continue
            src_location = location_of(site)
            src_price = obs.prices_per_h.get(src_location)
            if src_price is None:
                continue
            src_flappy = (
                obs.preemptions.get(src_location, 0)
                >= self.preemption_threshold
            )
            best: Optional[tuple[float, str]] = None
            for target in sorted(obs.standby_sites):
                if target in taken:
                    continue
                dst_location = location_of(target)
                if dst_location == src_location:
                    continue
                dst_price = obs.prices_per_h.get(dst_location)
                if dst_price is None:
                    continue
                if (obs.preemptions.get(dst_location, 0)
                        >= self.preemption_threshold):
                    continue
                if best is None or (dst_price, target) < best:
                    best = (dst_price, target)
            if best is None:
                continue
            dst_price, target = best
            if src_price > self.price_ratio * dst_price:
                reason = (
                    f"spot {src_location} ${src_price:.3f}/h > "
                    f"{self.price_ratio:g}x {location_of(target)} "
                    f"${dst_price:.3f}/h"
                )
            elif src_flappy and dst_price <= src_price:
                reason = (
                    f"{src_location} preempted "
                    f"{obs.preemptions.get(src_location, 0)}x "
                    f"(threshold {self.preemption_threshold})"
                )
            else:
                continue
            taken.add(target)
            actions.append(
                Action("migrate", site=site, target=target, reason=reason)
            )
        return actions


@dataclass(frozen=True)
class TbsPolicy:
    """Adapt the target batch size to the measured granularity.

    Below ``min_granularity`` (the paper's usefulness floor) every extra
    peer is wasted on communication; growing the batch stretches the
    calculation phase back over the fixed averaging cost. The optional
    ``shrink_above`` bound walks the batch back down when communication
    is essentially free (disabled by default: the simulation does not
    model the statistical-efficiency cost of large batches).
    """

    min_granularity: float = MIN_USEFUL_GRANULARITY
    growth_factor: int = 2
    max_tbs: int = 1 << 20
    shrink_above: Optional[float] = None
    min_tbs: int = 1024

    def decide(self, obs: Observation) -> list[Action]:
        g = obs.granularity
        tbs = obs.target_batch_size
        if g < self.min_granularity and tbs < self.max_tbs:
            grown = min(tbs * self.growth_factor, self.max_tbs)
            return [Action(
                "set_tbs", tbs=grown,
                reason=(f"granularity {g:.2f} < "
                        f"{self.min_granularity:g} floor"),
            )]
        if (self.shrink_above is not None and g > self.shrink_above
                and tbs > self.min_tbs):
            shrunk = max(tbs // self.growth_factor, self.min_tbs)
            return [Action(
                "set_tbs", tbs=shrunk,
                reason=f"granularity {g:.2f} > {self.shrink_above:g}",
            )]
        return []


@dataclass(frozen=True)
class ScalingPolicy:
    """Scale the peer count by the planner's doubling-speedup rule.

    Scale up onto a free spare when ``best_speedup_when_doubling`` at
    the measured granularity clears ``min_doubling_speedup`` — and the
    spare is no pricier than ``max_price_ratio`` times the cheapest
    active peer, so scaling never buys throughput at a worse $/sample.
    Scale the most expensive non-pinned peer down when granularity falls
    under ``min_granularity``.
    """

    min_doubling_speedup: float = 1.9
    min_granularity: float = MIN_USEFUL_GRANULARITY
    min_peers: int = 2
    max_peers: int = 64
    max_price_ratio: float = 1.0

    def decide(self, obs: Observation) -> list[Action]:
        g = obs.granularity
        active = len(obs.active_sites)
        speedup = 2.0 if math.isinf(g) else best_speedup_when_doubling(g)
        if (speedup >= self.min_doubling_speedup
                and active < self.max_peers and obs.standby_sites):
            known = [p for p in (obs.price_of(s) for s in obs.active_sites)
                     if p is not None]
            ceiling = (min(known) * self.max_price_ratio) if known else None
            best: Optional[tuple[float, str]] = None
            for target in sorted(obs.standby_sites):
                price = obs.price_of(target)
                if price is None:
                    continue
                if ceiling is not None and price > ceiling + 1e-12:
                    continue
                if best is None or (price, target) < best:
                    best = (price, target)
            if best is not None:
                price, target = best
                return [Action(
                    "scale_up", target=target,
                    reason=(f"doubling speedup {speedup:.2f} >= "
                            f"{self.min_doubling_speedup:g} at "
                            f"${price:.3f}/h"),
                )]
        if g < self.min_granularity and active > self.min_peers:
            candidates = sorted(
                (s for s in obs.active_sites if s not in obs.pinned_sites),
                key=lambda s: (-(obs.price_of(s) or 0.0), s),
            )
            if candidates:
                return [Action(
                    "scale_down", site=candidates[0],
                    reason=(f"granularity {g:.2f} < "
                            f"{self.min_granularity:g} floor"),
                )]
        return []


@dataclass(frozen=True)
class AdaptivePolicy:
    """The composite default: placement, then batch size, then scale.

    Migration proposals take precedence each epoch; batch-size repair is
    preferred over shedding peers; the peer count only moves on epochs
    where nothing else did.
    """

    migration: Optional[MigrationPolicy] = MigrationPolicy()
    tbs: Optional[TbsPolicy] = TbsPolicy()
    scaling: Optional[ScalingPolicy] = ScalingPolicy()

    def decide(self, obs: Observation) -> list[Action]:
        actions: list[Action] = []
        if self.migration is not None:
            actions.extend(self.migration.decide(obs))
        if self.tbs is not None:
            actions.extend(self.tbs.decide(obs))
        if self.scaling is not None and not actions:
            actions.extend(self.scaling.decide(obs))
        return actions


#: Name -> policy class, the ``repro control`` / ``--policy`` registry.
POLICIES = {
    "adaptive": AdaptivePolicy,
    "migrate": MigrationPolicy,
    "tbs": TbsPolicy,
    "scale": ScalingPolicy,
}


def get_policy(name: str):
    """Instantiate a registered policy (default parameters) by name."""
    if name not in POLICIES:
        raise KeyError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}"
        )
    return POLICIES[name]()
