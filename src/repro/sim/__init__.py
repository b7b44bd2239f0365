"""Discrete-event simulation substrate (engine, timers, RNG, tracing)."""

from .engine import EventHandle, SimulationError, Simulator
from .process import PeriodicProcess, Timer
from .rand import RandomStreams
from .trace import NullTracer, TraceRecord, Tracer

__all__ = [
    "EventHandle",
    "SimulationError",
    "Simulator",
    "Timer",
    "PeriodicProcess",
    "RandomStreams",
    "Tracer",
    "NullTracer",
    "TraceRecord",
]
