"""Discrete-event simulation kernel: event loop, processes, resources, RNG,
and the runtime determinism sanitizer."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    KernelCheckpoint,
    Process,
    Race,
    SimulationError,
    Simulator,
    Timeout,
)
from .queues import CalendarQueue, EventQueue, HeapQueue, make_queue
from .random import RngRegistry
from .resources import Container, PriorityStore, Resource, Store
from .sanitizer import DeterminismSanitizer, Divergence, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarQueue",
    "Container",
    "DeterminismSanitizer",
    "Divergence",
    "Event",
    "EventQueue",
    "HeapQueue",
    "Interrupt",
    "KernelCheckpoint",
    "PriorityStore",
    "Process",
    "Race",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "make_queue",
]
