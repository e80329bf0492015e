"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: a
:class:`~repro.engine.simulator.Simulator` owns a time-ordered event queue;
:class:`~repro.engine.process.Process` objects are Python generators that
``yield`` events (timeouts, resource grants, other processes) to suspend.
:meth:`~repro.engine.simulator.Simulator.timeout` is the one way to wait a
fixed delay.
Data paths run without processes: each is declared once as a tuple of
stages and run by the :class:`~repro.engine.pipeline.Pipeline`
interpreter.

This is the substrate every timing model in the library is built on.
"""

from repro.engine.event import Event, Timeout
from repro.engine.pipeline import DELAY, DMA, HOOK, LEG, Pipeline, as_event
from repro.engine.process import Process
from repro.engine.simulator import Simulator
from repro.engine.resources import AllOf, BandwidthServer, Resource
from repro.engine.stats import Histogram, UtilizationTracker

__all__ = [
    "AllOf",
    "BandwidthServer",
    "DELAY",
    "DMA",
    "Event",
    "HOOK",
    "Histogram",
    "LEG",
    "Pipeline",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
    "UtilizationTracker",
    "as_event",
]
