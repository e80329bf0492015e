"""Core-side dispatch with GAM wait-time feedback.

ARC's GAM "provides feedback to cores indicating the wait time for a
particular resource to become available" (Section 2).  The point of the
feedback is the dispatch decision this module implements: when the
estimated queue wait exceeds what the software implementation would
cost, the core runs the tile itself instead of queueing.

:class:`FeedbackDispatcher` wraps that policy for a pool of monolithic
accelerators and records how many tiles went each way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gam import GlobalAcceleratorManager
from repro.engine import Event, Simulator
from repro.errors import ConfigError


@dataclass
class DispatchStats:
    """Counts of dispatch decisions taken."""

    accelerated: int = 0
    software_fallback: int = 0

    @property
    def total(self) -> int:
        """Total tiles dispatched."""
        return self.accelerated + self.software_fallback

    @property
    def fallback_fraction(self) -> float:
        """Share of tiles that ran in software."""
        return self.software_fallback / self.total if self.total else 0.0


class FeedbackDispatcher:
    """Chooses accelerator vs software per tile using GAM feedback.

    Args:
        sim: The simulator.
        gam: The accelerator manager providing :meth:`estimate_wait`.
        accelerator_class: GAM class name of the target accelerator.
        accel_cycles: Accelerator execution cycles per tile (excluding
            queueing).
        software_cycles: Core execution cycles per tile.
    """

    def __init__(
        self,
        sim: Simulator,
        gam: GlobalAcceleratorManager,
        accelerator_class: str,
        accel_cycles: float,
        software_cycles: float,
    ) -> None:
        if accel_cycles <= 0 or software_cycles <= 0:
            raise ConfigError("per-tile cycle costs must be positive")
        self.sim = sim
        self.gam = gam
        self.accelerator_class = accelerator_class
        self.accel_cycles = accel_cycles
        self.software_cycles = software_cycles
        self.stats = DispatchStats()

    def should_accelerate(self) -> bool:
        """The feedback decision: queue only when it still pays.

        Accelerate when (estimated wait + accelerator time) beats the
        software time; otherwise the core keeps the tile.
        """
        wait = self.gam.estimate_wait(
            self.accelerator_class, service_hint=self.accel_cycles
        )
        return wait + self.accel_cycles < self.software_cycles

    def dispatch_tile(self) -> Event:
        """Run one tile by whichever path the feedback picks.

        Returns an event firing at tile completion whose value is
        ``"accel"`` or ``"software"``.
        """

        def software_path():
            yield self.sim.timeout(self.software_cycles)
            return "software"

        if not self.should_accelerate():
            self.stats.software_fallback += 1
            return self.sim.process(software_path())

        # Issue the GAM request *now* so the next dispatch decision sees
        # this tile in the queue (the hardware enqueues synchronously).
        request_event = self.gam.request(self.accelerator_class)

        def accel_path():
            ticket = yield request_event
            yield self.sim.timeout(self.accel_cycles)
            self.gam.release(self.accelerator_class, ticket)
            return "accel"

        self.stats.accelerated += 1
        return self.sim.process(accel_path())

    def run_tiles(self, n_tiles: int) -> Event:
        """Dispatch ``n_tiles`` back-to-back; fires when all complete."""
        from repro.engine import AllOf

        if n_tiles < 1:
            raise ConfigError("need at least one tile")
        return AllOf(self.sim, [self.dispatch_tile() for _ in range(n_tiles)])
