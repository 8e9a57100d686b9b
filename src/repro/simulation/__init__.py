"""Discrete-event simulation kernel used by every timed subsystem."""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Timeout",
]
