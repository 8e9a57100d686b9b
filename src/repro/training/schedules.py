"""Gradient clipping for big-batch training.

LAMB is typically run with gradient clipping (You et al., 2019);
:class:`~repro.training.trainer.LocalTrainer` applies it when given
``max_grad_norm``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["clip_gradient_norm"]


def clip_gradient_norm(gradient: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale a flat gradient so its L2 norm is at most ``max_norm``."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = float(np.linalg.norm(gradient))
    if norm <= max_norm or norm == 0.0:
        return gradient
    return gradient * (max_norm / norm)
