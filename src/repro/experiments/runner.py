"""Run experiments and summarize them in the paper's terms.

:func:`run_experiment` executes a named setup through the full
discrete-event simulation and wraps the result in an
:class:`ExperimentResult` carrying the quantities the paper reports:
throughput, granularity, speedup over the single-GPU baseline, per-GPU
contribution, and the hourly/normalized costs.

:func:`centralized_baseline` produces the comparison points that do not
involve Hivemind at all — single GPUs, the DGX-2 and the 4xT4 node with
PyTorch DDP, and the A100 — priced from the instance catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import cost_per_million_samples, cost_report
from ..hardware import baseline_sps
from ..hivemind import RunResult, run_hivemind
from .configs import build_run_config, get_spec

__all__ = ["ExperimentResult", "run_experiment", "centralized_baseline"]


@dataclass
class ExperimentResult:
    """One row of an evaluation figure/table."""

    key: str
    model: str
    target_batch_size: int
    num_gpus: int
    throughput_sps: float
    local_throughput_sps: float
    granularity: float
    calc_s: float
    matchmaking_s: float
    transfer_s: float
    hourly_cost_usd: float
    usd_per_million_samples: float
    baseline_sps: Optional[float] = None
    run: Optional[RunResult] = None

    @property
    def telemetry(self) -> Optional[object]:
        """Telemetry sink the underlying run recorded into, if any."""
        return self.run.telemetry if self.run is not None else None

    @property
    def speedup(self) -> Optional[float]:
        if self.baseline_sps is None or self.baseline_sps <= 0:
            return None
        return self.throughput_sps / self.baseline_sps

    @property
    def per_gpu_contribution(self) -> Optional[float]:
        speedup = self.speedup
        if speedup is None:
            return None
        return speedup / self.num_gpus

    def row(self) -> dict:
        """Flat dict for table formatting."""
        return {
            "experiment": self.key,
            "model": self.model,
            "gpus": self.num_gpus,
            "tbs": self.target_batch_size,
            "sps": round(self.throughput_sps, 1),
            "granularity": round(self.granularity, 2)
            if self.granularity != float("inf") else float("inf"),
            "speedup": round(self.speedup, 2)
            if self.speedup is not None else None,
            "usd_per_h": round(self.hourly_cost_usd, 3),
            "usd_per_1m": round(self.usd_per_million_samples, 2),
        }


def run_experiment(
    key: str,
    model: str,
    target_batch_size: int = 32768,
    epochs: int = 3,
    spot: bool = True,
    **overrides,
) -> ExperimentResult:
    """Execute one named experiment and summarize it."""
    spec = get_spec(key)
    config = build_run_config(key, model, target_batch_size, epochs,
                              **overrides)
    result = run_hivemind(config)
    report = cost_report(result, spot=spot)
    first_location, __, first_gpu = spec.groups[0]
    return ExperimentResult(
        key=key,
        model=model,
        target_batch_size=target_batch_size,
        num_gpus=spec.total_gpus,
        throughput_sps=result.throughput_sps,
        local_throughput_sps=result.local_throughput_sps,
        granularity=result.granularity,
        calc_s=result.calc_time_s / len(result.epochs),
        matchmaking_s=sum(e.matchmaking_s for e in result.epochs)
        / len(result.epochs),
        transfer_s=sum(e.transfer_s for e in result.epochs)
        / len(result.epochs),
        hourly_cost_usd=report.hourly_total,
        usd_per_million_samples=report.usd_per_million_samples,
        baseline_sps=baseline_sps(first_gpu, model),
        run=result,
    )


#: Centralized (non-Hivemind) comparison points used by Figures 1, 15
#: and 17: (instance key, gpu key, spot availability).
_CENTRALIZED = {
    "1xT4": ("gc-t4", "t4"),
    "1xA10": ("lambda-a10", "a10"),
    "DGX-2": ("gc-dgx2", "dgx2"),
    "4xT4-DDP": ("gc-4xt4", "4xt4"),
    "A100": ("gc-a100", "a100"),
    "RTX8000": ("onprem-rtx8000", "rtx8000"),
}


def centralized_baseline(
    name: str, model: str, spot: bool = True
) -> ExperimentResult:
    """A single-node baseline: calibrated throughput + catalog price."""
    from ..cloud import get_instance_type

    if name not in _CENTRALIZED:
        raise KeyError(
            f"unknown baseline {name!r}; known: {sorted(_CENTRALIZED)}"
        )
    instance_key, gpu = _CENTRALIZED[name]
    instance = get_instance_type(instance_key)
    sps = baseline_sps(gpu, model)
    hourly = instance.price_per_hour(spot=spot)
    return ExperimentResult(
        key=name,
        model=model,
        target_batch_size=0,
        num_gpus=instance.gpu.device_count,
        throughput_sps=sps,
        local_throughput_sps=sps,
        granularity=float("inf"),
        calc_s=0.0,
        matchmaking_s=0.0,
        transfer_s=0.0,
        hourly_cost_usd=hourly,
        usd_per_million_samples=cost_per_million_samples(sps, hourly),
        baseline_sps=None,
    )
