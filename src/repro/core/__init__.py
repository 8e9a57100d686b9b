"""The paper's analysis layer: granularity, prediction, costs, advice."""

from .analytical import Prediction, predict
from .costs import (
    CallFractions,
    CostReport,
    VmCost,
    call_fractions,
    cost_per_million_samples,
    cost_report,
)
from .granularity import (
    best_speedup_when_doubling,
    granularity,
    per_gpu_contribution,
    speedup_from_scaling,
)
from .planner import (
    Advice,
    MIN_USEFUL_GRANULARITY,
    evaluate_setup,
    recommend_target_batch_size,
)

__all__ = [
    "Advice",
    "CallFractions",
    "CostReport",
    "MIN_USEFUL_GRANULARITY",
    "Prediction",
    "VmCost",
    "best_speedup_when_doubling",
    "call_fractions",
    "cost_per_million_samples",
    "cost_report",
    "evaluate_setup",
    "granularity",
    "per_gpu_contribution",
    "predict",
    "recommend_target_batch_size",
    "speedup_from_scaling",
]
