"""Numerical training substrate: autograd, layers, losses, optimizers."""

from .autograd import Tensor
from .layers import MLP, Linear, Module, ReLU, Sequential
from .losses import cross_entropy
from .optimizers import LAMB, SGD, Optimizer
from .schedules import clip_gradient_norm
from .trainer import (
    GradientAccumulator,
    LocalTrainer,
    TrainLog,
    compute_gradient,
    make_classification_data,
)

__all__ = [
    "clip_gradient_norm",
    "GradientAccumulator",
    "LAMB",
    "Linear",
    "LocalTrainer",
    "MLP",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Tensor",
    "TrainLog",
    "compute_gradient",
    "cross_entropy",
    "make_classification_data",
]
