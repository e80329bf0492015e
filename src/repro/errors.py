"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An architecture or workload configuration is invalid."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state."""


class AllocationError(ReproError):
    """The ABC/GAM could not allocate a requested resource."""


class DecompositionError(ReproError):
    """A kernel could not be decomposed into the available ABB types."""


class CapacityError(ReproError):
    """A resource request exceeded a hard capacity limit."""
