"""End-to-end simulated Hivemind training runs.

:func:`run_hivemind` wires every substrate together: the network fabric
and topology, calibrated per-peer compute rates, matchmaking, the
Moshpit averager, data loading from the object store, the DHT +
monitor, and (optionally) a spot fleet with interruptions and a real
numpy model trained with real gradients. One :class:`Membership`
decides which peers are live, and one ``sync_state`` process brings a
preempted or newly activated peer back.

The returned :class:`RunResult` carries everything the paper reports
per experiment: global/local throughput, per-epoch calculation /
matchmaking / transfer splits, the granularity metric, egress traffic
by class and by site, and the data-loading bill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..cloud import InterruptionModel, SpotFleet, get_instance_type
from ..data import StoreLink, get_dataset
from ..faults import FaultInjector, FaultSchedule, FaultTolerance
from ..hardware import get_gpu, local_sps
from ..models import get_model
from ..network import Fabric, Topology, location_of
from ..simulation import Environment, Event, RandomStreams
from ..telemetry import resolve_telemetry
from ..training import MLP, SGD, compute_gradient, make_classification_data
from .averager import Contribution, MoshpitAverager
from .dht import DhtNetwork, DhtNode
from .matchmaking import MIN_MATCHMAKING_S, form_groups, matchmaking_delay
from .monitor import PROGRESS_KEY, TrainingMonitor

if TYPE_CHECKING:  # the control plane imports this module via repro.core
    from ..controlplane import Decision

__all__ = [
    "PeerSpec",
    "NumericConfig",
    "HivemindRunConfig",
    "EpochStats",
    "RunResult",
    "run_hivemind",
]


@dataclass(frozen=True)
class PeerSpec:
    """One training participant: a network site plus its accelerator."""

    site: str
    gpu: str  # key into the GPU catalog ("t4", "a10", "rtx8000", "dgx2")

    @property
    def instance_key(self) -> Optional[str]:
        """Best-effort mapping to the instance catalog for pricing."""
        provider = self.site.split(":", 1)[0]
        mapping = {
            ("gc", "t4"): "gc-t4",
            ("aws", "t4"): "aws-t4",
            ("azure", "t4"): "azure-t4",
            ("lambda", "a10"): "lambda-a10",
            ("gc", "dgx2"): "gc-dgx2",
            ("gc", "4xt4"): "gc-4xt4",
            ("gc", "a100"): "gc-a100",
            ("onprem", "rtx8000"): "onprem-rtx8000",
            ("onprem", "dgx2"): "onprem-dgx2",
        }
        return mapping.get((provider, self.gpu))


@dataclass(frozen=True)
class NumericConfig:
    """Train a real (small) numpy model inside the simulation.

    The proxy model stands in numerically for the full-size model: the
    simulated payload still uses the real parameter count, but the
    gradients exchanged and applied are genuine.
    """

    in_features: int = 16
    hidden: tuple[int, ...] = (32,)
    num_classes: int = 4
    learning_rate: float = 0.2
    dataset_size: int = 512


@dataclass
class HivemindRunConfig:
    model: str
    peers: list[PeerSpec]
    topology: Topology
    target_batch_size: int = 32768
    epochs: int = 5
    codec: str = "fp16"
    min_matchmaking_s: float = MIN_MATCHMAKING_S
    seed: int = 0
    #: Delayed-parameter-update style overlap of averaging with the next
    #: accumulation round (ablation; the paper's measured behaviour is
    #: additive calc + comm, so the default is False).
    overlap_communication: bool = False
    account_data_loading: bool = True
    numeric: Optional[NumericConfig] = None
    interruption_model: Optional[InterruptionModel] = None
    startup_s: float = 120.0
    monitor_interval_s: Optional[float] = 25.0
    #: Deterministic chaos: a :class:`repro.faults.FaultSchedule` to
    #: inject during the run (link degradation, partitions, stragglers,
    #: crashes, zone outages). ``None`` disables injection entirely.
    fault_schedule: Optional[FaultSchedule] = None
    #: Survival policy for averaging rounds and DHT RPCs. Defaults to
    #: ``FaultTolerance()`` when a schedule is set, else legacy
    #: (no deadlines, no retries) behaviour.
    fault_tolerance: Optional[FaultTolerance] = None
    #: Probability that a preemption cascades to each other live VM in
    #: the same zone (correlated capacity crunch; 0 = independent).
    zone_correlation: float = 0.0
    #: When set, sample system metrics (egress, live peers, progress)
    #: every interval — the paper logs system metrics every second.
    metrics_interval_s: Optional[float] = None
    #: Telemetry sink (:class:`repro.telemetry.Telemetry`). ``None``
    #: falls back to the ambient sink installed by
    #: :func:`repro.telemetry.use_telemetry`, else tracing is disabled
    #: at zero cost.
    telemetry: Optional[object] = None
    #: Provisioned-but-idle spare peers the control plane may activate
    #: (migration targets / scale-up spares). Part of the topology and
    #: the averaging plan, but contribute nothing until a policy
    #: decision brings them up.
    standby_peers: tuple[PeerSpec, ...] = ()
    #: Control-plane policy (see :mod:`repro.controlplane`). ``None``
    #: — the default — preserves static behaviour byte for byte.
    policy: Optional[object] = None
    #: Location -> :class:`~repro.cloud.SpotPriceModel`. Drives both
    #: the controller's migration signal and the time-integrated VM
    #: bill; ``None`` keeps flat catalog pricing.
    price_models: Optional[dict] = None

    def __post_init__(self):
        if not self.peers:
            raise ValueError("need at least one peer")
        if self.target_batch_size < 1:
            raise ValueError("target_batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.standby_peers:
            self.standby_peers = tuple(self.standby_peers)
            active = {peer.site for peer in self.peers}
            for peer in self.standby_peers:
                if peer.site in active:
                    raise ValueError(
                        f"standby peer {peer.site!r} duplicates an "
                        "active peer"
                    )


@dataclass(frozen=True)
class MetricSample:
    """One system-metrics snapshot (paper: logged every second)."""

    time_s: float
    live_peers: int
    epochs_done: int
    samples_applied: int
    egress_bytes_total: float
    active_flows: int


@dataclass
class EpochStats:
    index: int
    calc_s: float
    matchmaking_s: float
    transfer_s: float
    wall_s: float
    samples: int
    live_peers: int
    loss: Optional[float] = None
    #: Averaging-round retries this epoch needed (fault-tolerant runs).
    rounds_retried: int = 0
    #: True when the epoch's round fell back to a partial average.
    degraded: bool = False

    @property
    def comm_s(self) -> float:
        return self.matchmaking_s + self.transfer_s

    @property
    def granularity(self) -> float:
        return self.calc_s / self.comm_s if self.comm_s > 0 else float("inf")


@dataclass
class RunResult:
    config: HivemindRunConfig
    epochs: list[EpochStats]
    duration_s: float
    egress_bytes_by_class: dict[str, float]
    egress_bytes_by_site: dict[str, float]
    egress_bytes_by_pair: dict[tuple[str, str], float]
    averaging_bytes: float
    data_ingress_bytes_by_site: dict[str, float]
    monitor_samples: int = 0
    interruptions: int = 0
    state_syncs: int = 0
    #: High-water mark of concurrent fabric flows during the run
    #: (reported by ``repro bench`` as a fan-out size proxy).
    peak_active_flows: int = 0
    losses: list[float] = field(default_factory=list)
    metrics: list[MetricSample] = field(default_factory=list)
    #: The telemetry sink the run recorded into (``None`` when tracing
    #: was disabled); carries the tracer and the metrics registry.
    telemetry: Optional[object] = None
    #: Total averaging-round retries across all epochs.
    rounds_retried: int = 0
    #: Epochs whose averaging round degraded to a partial average.
    degraded_epochs: int = 0
    #: Fabric transfers cancelled mid-flight (round aborts, RPC
    #: timeouts).
    transfers_aborted: int = 0
    #: Injected faults by kind (empty when no schedule was configured).
    fault_counts: dict[str, int] = field(default_factory=dict)
    #: Site -> [(start_s, end_s), ...] VM uptime windows, recorded when
    #: a control-plane policy or spot price models are configured.
    #: Empty otherwise; cost accounting then assumes full-run uptime.
    uptime_intervals_by_site: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    #: Controller decision log, in the order they were taken.
    #: Byte-identical across identically-seeded runs.
    decisions: list[Decision] = field(default_factory=list)
    #: Applied control actions by kind ("migrate", "scale_up", ...).
    control_actions: dict[str, int] = field(default_factory=dict)

    @property
    def total_samples(self) -> int:
        return sum(e.samples for e in self.epochs)

    @property
    def throughput_sps(self) -> float:
        """Global throughput: applied samples over wall time."""
        if self.duration_s <= 0:
            return 0.0
        return self.total_samples / self.duration_s

    @property
    def calc_time_s(self) -> float:
        return sum(e.calc_s for e in self.epochs)

    @property
    def comm_time_s(self) -> float:
        return sum(e.comm_s for e in self.epochs)

    @property
    def granularity(self) -> float:
        """The paper's key metric: calculation over communication time."""
        if self.comm_time_s <= 0:
            return float("inf")
        return self.calc_time_s / self.comm_time_s

    @property
    def local_throughput_sps(self) -> float:
        """Normalized throughput without the averaging step."""
        calc = self.calc_time_s
        if calc <= 0:
            return 0.0
        return self.total_samples / calc

    def average_egress_rate_bps(self) -> float:
        """Mean per-site averaging egress rate over the whole run."""
        if self.duration_s <= 0 or not self.egress_bytes_by_site:
            return 0.0
        mean_bytes = float(
            np.mean(list(self.egress_bytes_by_site.values()))
        )
        return mean_bytes * 8.0 / self.duration_s


class _NumericState:
    """Per-peer real-model replicas plus a shared synthetic dataset."""

    def __init__(self, config: NumericConfig, sites: list[str], seed: int):
        rng = np.random.default_rng(seed)
        self.features, self.labels = make_classification_data(
            rng,
            num_samples=config.dataset_size,
            num_features=config.in_features,
            num_classes=config.num_classes,
        )
        self.replicas = {}
        self.optimizers = {}
        for site in sites:
            model = MLP(config.in_features, list(config.hidden),
                        config.num_classes, rng=np.random.default_rng(seed + 1))
            self.replicas[site] = model
            self.optimizers[site] = SGD(model.parameters(),
                                        lr=config.learning_rate)
        self.rng = rng

    def gradient_for(self, site: str, num_samples: int):
        count = max(min(num_samples, len(self.features)), 1)
        index = self.rng.integers(0, len(self.features), size=count)
        gradient, loss = compute_gradient(
            self.replicas[site], self.features[index], self.labels[index]
        )
        return gradient * count, count, loss

    def apply(self, sites: list[str], average: np.ndarray) -> None:
        for site in sites:
            self.replicas[site].load_grad_vector(average)
            self.optimizers[site].step()


class Membership:
    """Who is up, synced and active in a run: its one liveness model.

    * *Up*: the site's VM is running. A site without a fleet slot is
      always up; a slot's site is up from each boot to its next
      preemption.
    * *Synced*: the site holds the current training state. It loses the
      state when it goes down or is deactivated, and regains it when the
      run's ``sync_state`` process has downloaded it from a peer (the
      paper saw that take up to two hivemind epochs).
    * *Active*: the site is on the training roster. Under a controller
      this is the controller's own active set; without one it is the
      starting roster, so a standby peer never trains without a policy.

    A site is *live*, and contributes samples, when it is all three.
    Whether the run has a fleet or a controller is settled here, once;
    no query asks again.

    The object also records each site's VM uptime windows, which
    time-integrated spot billing reads.
    """

    def __init__(self, env: Environment, roster: list[str],
                 starting: list[str], fleet_sites: list[str],
                 active: Optional[set[str]] = None):
        self.env = env
        #: Every site in config order (starting peers, then standby);
        #: queries answer in this order and donor ties break by it.
        self.roster = list(roster)
        #: Sites on fleet slots start down and come up as their VM boots.
        self.up: set[str] = set(self.roster) - set(fleet_sites)
        self.synced: set[str] = set(starting)
        self.active: set[str] = set(starting) if active is None else active
        self.state_syncs = 0
        self.uptime: dict[str, list[tuple[float, float]]] = {
            site: [] for site in self.roster
        }
        self._up_since: dict[str, float] = {}
        #: One-shot event training blocks on while no site is live;
        #: re-armed on every sync so each all-dead episode gets its own.
        self._synced_event = Event(env)
        for site in starting:
            self.open_uptime(site)

    # -- queries -----------------------------------------------------------

    def is_up(self, site: str) -> bool:
        return site in self.up

    def live(self) -> list[str]:
        """Sites that are up, synced and active, in roster order."""
        return [site for site in self.roster
                if site in self.up and site in self.synced
                and site in self.active]

    def donor_for(self, site: str, rtt_s) -> Optional[str]:
        """The synced peer nearest ``site`` (first in roster order on a
        tie), or ``None`` when no other peer holds the state."""
        donors = [s for s in self.roster if s in self.synced and s != site]
        if not donors:
            return None
        return min(donors, key=lambda donor: rtt_s(donor, site))

    def wait_for_sync(self) -> Event:
        """An event that fires when the next site finishes syncing."""
        return self._synced_event

    # -- transitions -------------------------------------------------------

    def vm_up(self, site: str) -> bool:
        """A fleet slot booted. True when the site must sync its state:
        it is a replacement (not the initial boot) for an active site.
        Deactivated sites stay parked until the controller activates
        them again."""
        self.up.add(site)
        if self.env.now > 0 and site in self.active:
            self.open_uptime(site)
            return True
        return False

    def vm_down(self, site: str) -> None:
        self.up.discard(site)
        self.leave(site)

    def leave(self, site: str) -> None:
        """The site stops training: its VM went down or was parked."""
        self.close_uptime(site)
        self.synced.discard(site)

    def mark_synced(self, site: str) -> None:
        self.synced.add(site)
        event, self._synced_event = self._synced_event, Event(self.env)
        event.succeed()

    def open_uptime(self, site: str) -> None:
        if site not in self._up_since:
            self._up_since[site] = self.env.now

    def close_uptime(self, site: str) -> None:
        start = self._up_since.pop(site, None)
        if start is not None and self.env.now > start:
            self.uptime[site].append((start, self.env.now))

    def close(self) -> None:
        for site in list(self._up_since):
            self.close_uptime(site)


def run_hivemind(config: HivemindRunConfig) -> RunResult:
    """Simulate a full Hivemind training run; see module docstring."""
    model = get_model(config.model)
    tel = resolve_telemetry(config.telemetry)
    tracing = tel.enabled
    env = Environment(telemetry=tel if tracing else None)
    fabric = Fabric(env, config.topology, telemetry=tel)
    streams = RandomStreams(config.seed)

    schedule = config.fault_schedule
    if schedule is not None and schedule.empty:
        schedule = None
    ft = config.fault_tolerance
    if ft is None and schedule is not None:
        ft = FaultTolerance()
    #: Chaos mode: the fault-tolerant consumer paths (round deadlines,
    #: DHT retries, DHT leave/rejoin on preemption) are active.
    chaos = ft is not None

    standby = list(config.standby_peers)
    all_peers = list(config.peers) + standby
    sites = [peer.site for peer in config.peers]
    all_sites = [peer.site for peer in all_peers]
    rates = {
        peer.site: local_sps(peer.gpu, model) for peer in all_peers
    }
    plan = form_groups(config.topology, all_sites)
    caps = {
        peer.site: get_gpu(peer.gpu).avg_stream_cap_bps
        for peer in all_peers
    }
    averager = MoshpitAverager(
        env,
        fabric,
        plan,
        parameter_count=model.parameters,
        codec=config.codec,
        stream_caps_bps=caps,
        telemetry=tel,
        fault_tolerance=ft,
    )

    links: dict[str, StoreLink] = {}
    if config.account_data_loading:
        dataset = get_dataset(model.dataset)
        links = {site: StoreLink(dataset) for site in all_sites}

    fleet: Optional[SpotFleet] = None
    #: Crash/zone-outage faults need force-preemptible slots even when
    #: no stochastic interruption model is configured.
    needs_fleet = config.interruption_model is not None or (
        schedule is not None
        and bool(schedule.crash_faults or schedule.zone_outages)
    )
    if needs_fleet:
        fleet = SpotFleet(
            env,
            streams.stream("interruptions"),
            slots=[
                (peer.site, get_instance_type(peer.instance_key or "gc-t4"))
                for peer in all_peers
            ],
            interruption_model=config.interruption_model,
            startup_s=config.startup_s,
            telemetry=tel,
            allow_forced=schedule is not None,
            zone_correlation=config.zone_correlation,
            zone_of=lambda s: config.topology.get(s).zone,
        )

    numeric = (
        _NumericState(config.numeric, all_sites, config.seed)
        if config.numeric is not None
        else None
    )

    # -- DHT + monitor -----------------------------------------------------
    dht_network = DhtNetwork(
        env,
        fabric,
        telemetry=tel,
        max_retries=ft.dht_max_retries if ft is not None else 0,
        retry_backoff_s=ft.dht_backoff_s if ft is not None else 1.0,
        backoff_factor=ft.backoff_factor if ft is not None else 2.0,
        rpc_timeout_s=ft.dht_rpc_timeout_s if ft is not None else None,
    )
    dht_nodes = {site: DhtNode(dht_network, site) for site in all_sites}
    coordinator_node = dht_nodes[sites[0]]
    for peer in standby:
        # A spare joins the DHT only once the controller activates it.
        dht_nodes[peer.site].leave()

    injector: Optional[FaultInjector] = None
    if schedule is not None:
        injector = FaultInjector(
            env, config.topology, fabric=fabric, schedule=schedule,
            telemetry=tel, sites=sites,
        )
        if fleet is not None:
            injector.on_crash = fleet.preempt
        injector.start()
    monitor = None
    monitor_process = None
    if config.monitor_interval_s is not None:
        monitor = TrainingMonitor(
            env, coordinator_node, interval_s=config.monitor_interval_s,
            telemetry=tel if tracing else None,
        )

    # -- membership: who trains, and how a peer comes back -----------------
    def leave_training(site: str) -> None:
        """Abort any round ``site`` is in and take it off the DHT."""
        averager.notify_peer_down(site)
        node = dht_nodes[site]
        if node.alive:
            node.leave()

    def sync_state(site: str):
        """Bring ``site`` back: (re)join the DHT, then download the model
        state from the nearest synced peer. Fleet revivals and
        controller activations both run this process."""
        node = dht_nodes[site]
        if not node.alive:
            # A replacement VM or a spare joins the DHT cold.
            yield from node.rejoin(coordinator_node)
        donor = membership.donor_for(site, config.topology.rtt_s)
        if donor is not None:
            with tel.span("state_sync", category="sync", track=site,
                          donor=donor):
                yield fabric.transfer(
                    donor, site, model.gradient_bytes("fp16"), tag="sync"
                )
            membership.state_syncs += 1
            tel.counter("state_syncs_total",
                        "Model-state downloads after rejoin").inc()
        membership.mark_synced(site)

    def on_fleet_event(event) -> None:
        if not event.up:
            membership.vm_down(event.site)
            if chaos:
                leave_training(event.site)
        elif membership.vm_up(event.site):
            env.process(sync_state(event.site))

    # -- control plane -----------------------------------------------------
    controller = None
    if config.policy is not None:
        from ..controlplane import Controller

        def preemption_counts() -> dict[str, int]:
            counts: dict[str, int] = {}
            for slot in (fleet.slots if fleet is not None else ()):
                loc = location_of(slot.site)
                counts[loc] = counts.get(loc, 0) + slot.interruptions
            return counts

        def deactivate_peer(site: str) -> None:
            membership.leave(site)
            leave_training(site)

        def activation(site: str):
            yield env.timeout(config.startup_s)
            yield from sync_state(site)
            controller.finish_activation(site)

        def activate_peer(site: str) -> None:
            membership.open_uptime(site)
            env.process(activation(site))

        flat_prices: dict[str, float] = {}
        for peer in all_peers:
            loc = location_of(peer.site)
            if loc in flat_prices or peer.instance_key is None:
                continue
            price = get_instance_type(peer.instance_key).price_per_hour(
                spot=True
            )
            if math.isfinite(price) and price > 0:
                flat_prices[loc] = price

        controller = Controller(
            env,
            config.policy,
            active_sites=sites,
            standby_sites=[peer.site for peer in standby],
            pinned_sites=(sites[0],),
            target_batch_size=config.target_batch_size,
            price_models=config.price_models,
            flat_prices=flat_prices,
            preemption_counts=preemption_counts,
            activate=activate_peer,
            deactivate=deactivate_peer,
            telemetry=tel,
        )

    membership = Membership(
        env, all_sites, sites,
        fleet_sites=all_sites if fleet is not None else [],
        active=controller.active if controller is not None else None,
    )
    averager.set_liveness(membership.is_up)
    if fleet is not None:
        fleet.subscribe(on_fleet_event)

    epoch_stats: list[EpochStats] = []
    losses: list[float] = []
    metric_samples: list[MetricSample] = []
    matchmaking_rng = streams.stream("matchmaking")

    def metrics_logger():
        from ..simulation import Interrupt

        try:
            while True:
                yield env.timeout(config.metrics_interval_s)
                metric_samples.append(MetricSample(
                    time_s=env.now,
                    live_peers=len(membership.live()),
                    epochs_done=len(epoch_stats),
                    samples_applied=sum(e.samples for e in epoch_stats),
                    egress_bytes_total=fabric.meter.total_bytes,
                    active_flows=fabric.active_flows,
                ))
        except Interrupt:
            return

    def publish_progress(epoch: int, live: int, total_samples: int):
        yield from coordinator_node.store(
            PROGRESS_KEY,
            {"epoch": epoch, "live_peers": live, "total_samples": total_samples},
            ttl_s=600.0,
        )

    def accumulate(target: int):
        """Advance time until the live peers accumulated ``target``
        samples; returns {site: samples} actually contributed."""
        contributed: dict[str, float] = {site: 0.0 for site in all_sites}
        remaining = float(target)
        while remaining > 1e-9:
            live = membership.live()
            if not live:
                # Block until a peer finishes syncing instead of polling.
                yield membership.wait_for_sync()
                continue
            effective: dict[str, float] = {}
            for site in live:
                rate = rates[site]
                if injector is not None:
                    rate *= injector.compute_factor(site)
                if site in links:
                    data_rate = links[site].demand_bps(rate)
                    max_rate = links[site].link_capacity_bps / (
                        8.0 * links[site].dataset.bytes_per_sample
                    )
                    if data_rate >= links[site].link_capacity_bps:
                        rate = min(rate, max_rate)
                effective[site] = rate
            total_rate = sum(effective.values())
            if total_rate <= 0:
                yield env.timeout(5.0)
                continue
            dt = remaining / total_rate
            step = min(dt, 30.0)
            yield env.timeout(step)
            for site, rate in effective.items():
                quantum = rate * step
                contributed[site] += quantum
            remaining -= total_rate * step
        for site, count in contributed.items():
            if site in links and count > 0:
                links[site].consume(count)
        return contributed

    def record_phase_spans(epoch: int, live: list[str], name: str,
                           category: str, start_s: float,
                           end_s: float) -> None:
        """One retrospective span per live peer track (when tracing)."""
        if not tracing or end_s <= start_s:
            return
        for site in live:
            tel.tracer.add_span(name, category, site, start_s, end_s,
                                epoch=epoch)

    def land_round(round_process, epoch: int, live: list[str],
                   started_s: float):
        """Wait for an averaging round, then trace and apply it."""
        result = yield round_process
        record_phase_spans(epoch, live, "transfer", "transfer", started_s,
                           env.now)
        if numeric is not None and result.average is not None:
            numeric.apply(live, result.average)
        return result

    def training():
        # Bootstrap the DHT before training starts.
        with tel.span("dht_bootstrap", category="dht", track="epochs"):
            bootstrap = dht_nodes[sites[0]]
            for site in sites[1:]:
                yield from dht_nodes[site].join(bootstrap)
        #: The overlapped round still in flight: (process, epoch, live
        #: sites, start time), landed before the next round starts.
        pending = None
        epoch_seconds = tel.histogram(
            "epoch_wall_seconds", "Wall time per hivemind epoch"
        )
        live_gauge = tel.gauge("live_peers", "Contributing peers per epoch")
        samples_counter = tel.counter(
            "samples_applied_total", "Samples applied across all epochs"
        )
        for epoch in range(config.epochs):
            epoch_start = env.now
            target = (
                controller.current_tbs if controller is not None
                else config.target_batch_size
            )
            contributed = yield from accumulate(target)
            calc_s = env.now - epoch_start

            matchmaking_start = env.now
            delay = matchmaking_delay(
                matchmaking_rng, calc_s, config.min_matchmaking_s,
                telemetry=tel,
            )
            yield env.timeout(delay)

            live = [site for site, count in contributed.items() if count > 0]
            contributions = []
            loss_values = []
            for site in live:
                count = int(round(contributed[site]))
                if count <= 0:
                    continue
                if numeric is not None:
                    weighted, count, loss = numeric.gradient_for(site, count)
                    loss_values.append(loss)
                    contributions.append(
                        Contribution(site, count, weighted_sum=weighted)
                    )
                else:
                    contributions.append(Contribution(site, count))

            record_phase_spans(epoch, live, "calc", "calc",
                               epoch_start, matchmaking_start)
            record_phase_spans(epoch, live, "matchmaking", "matchmaking",
                               matchmaking_start, matchmaking_start + delay)

            if pending is not None:
                previous = yield from land_round(*pending)
                epoch_stats[pending[1]].rounds_retried = previous.retries
                epoch_stats[pending[1]].degraded = previous.degraded
                pending = None

            round_start = env.now
            round_process = env.process(averager.run_round(contributions))
            round_retries = 0
            round_degraded = False
            samples = int(sum(contributed.values()))
            if config.overlap_communication:
                pending = (round_process, epoch, live, round_start)
                transfer_s = 0.0  # hidden behind the next epoch's calc
            else:
                result = yield from land_round(round_process, epoch, live,
                                               round_start)
                transfer_s = result.wall_time_s
                round_retries = result.retries
                round_degraded = result.degraded
                if round_degraded and result.dropped_peers:
                    # Only the surviving contributions were applied.
                    samples = result.total_samples

            if loss_values:
                losses.append(float(np.mean(loss_values)))
            epoch_stats.append(
                EpochStats(
                    index=epoch,
                    calc_s=calc_s,
                    matchmaking_s=delay,
                    transfer_s=transfer_s,
                    wall_s=env.now - epoch_start,
                    samples=samples,
                    live_peers=len(live),
                    loss=losses[-1] if loss_values else None,
                    rounds_retried=round_retries,
                    degraded=round_degraded,
                )
            )
            if tracing:
                tel.tracer.add_span("epoch", "epoch", "epochs",
                                    epoch_start, env.now, epoch=epoch,
                                    samples=samples, peers=len(live))
            epoch_seconds.observe(env.now - epoch_start)
            live_gauge.set(len(live))
            samples_counter.inc(samples)
            env.process(publish_progress(epoch, len(live), samples))
            if controller is not None:
                controller.on_epoch_end(epoch_stats[-1])
        if pending is not None:
            final = yield from land_round(*pending)
            epoch_stats[-1].transfer_s = final.wall_time_s
            epoch_stats[-1].rounds_retried = final.retries
            epoch_stats[-1].degraded = final.degraded

    main = env.process(training())
    if monitor is not None:
        monitor_process = env.process(monitor.run())
    metrics_process = None
    if config.metrics_interval_s is not None:
        metrics_process = env.process(metrics_logger())
    env.run(main)
    duration = env.now
    membership.close()
    for process in (monitor_process, metrics_process):
        if process is not None and process.is_alive:
            process.interrupt("run finished")
            env.run(process)

    if tracing:
        tel.sync_kernel_metrics()

    return RunResult(
        config=config,
        epochs=epoch_stats,
        duration_s=duration,
        egress_bytes_by_class=dict(fabric.meter.by_class),
        egress_bytes_by_site=dict(fabric.meter.egress_by_site),
        egress_bytes_by_pair=dict(fabric.meter.by_pair),
        averaging_bytes=sum(fabric.meter.by_pair.values()),
        data_ingress_bytes_by_site={
            site: link.bill.ingress_bytes for site, link in links.items()
        },
        monitor_samples=len(monitor.samples) if monitor is not None else 0,
        interruptions=fleet.total_interruptions if fleet is not None else 0,
        peak_active_flows=fabric.peak_active_flows,
        state_syncs=membership.state_syncs,
        losses=losses,
        metrics=metric_samples,
        telemetry=tel if tracing else None,
        rounds_retried=sum(e.rounds_retried for e in epoch_stats),
        degraded_epochs=sum(1 for e in epoch_stats if e.degraded),
        transfers_aborted=fabric.aborted_flows,
        fault_counts=dict(injector.counts) if injector is not None else {},
        uptime_intervals_by_site=(
            {site: list(iv) for site, iv in membership.uptime.items() if iv}
            if config.policy is not None or config.price_models else {}
        ),
        decisions=(
            list(controller.decisions) if controller is not None else []
        ),
        control_actions=(
            dict(controller.counts) if controller is not None else {}
        ),
    )
