"""Discrete-event simulation kernel.

A from-scratch generator-process kernel in the style popularised by
SimPy, plus the supporting cast a systems simulation needs: blocking
stores, counting resources, named deterministic random streams, a
metrics registry, and a structured trace log.

Quick taste::

    from repro.sim import Environment

    env = Environment()

    def pinger(env):
        while True:
            yield env.timeout(1.0)
            print("ping at", env.now)

    env.process(pinger(env))
    env.run(until=3.5)
"""

from .environment import Environment
from .events import AllOf, AnyOf, Condition, Event, Timeout, Timer
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries
from .process import Process
from .rng import RandomStreams, derive_seed
from .stores import Resource, Store
from .tracing import TraceLog, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Counter",
    "Environment",
    "Event",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Process",
    "RandomStreams",
    "Resource",
    "Store",
    "TimeSeries",
    "Timeout",
    "Timer",
    "TraceLog",
    "TraceRecord",
    "derive_seed",
]
