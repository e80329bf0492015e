"""Runtime ABB instances.

An :class:`ABBInstance` is one physical block placed on an island.  The
island/sim layers drive its state machine; the instance itself records
occupancy statistics used for the paper's utilization numbers (Sec. 5.8:
average 18.5 %, peak 43.5 %).
"""

from __future__ import annotations

import enum

from repro.abb.types import ABBType
from repro.errors import SimulationError


class ABBState(enum.Enum):
    """Lifecycle of a physical ABB."""

    IDLE = "idle"
    RESERVED = "reserved"  # allocated by the ABC, operands in flight
    COMPUTING = "computing"


class ABBInstance:
    """One physical accelerator building block on an island."""

    def __init__(self, abb_id: int, abb_type: ABBType, island_id: int) -> None:
        self.abb_id = abb_id
        self.abb_type = abb_type
        self.island_id = island_id
        self.state = ABBState.IDLE
        self.busy_cycles = 0.0
        self.total_invocations = 0
        self.total_tasks = 0
        self._busy_since = 0.0

    @property
    def is_free(self) -> bool:
        """Whether the ABC may allocate this block."""
        return self.state is ABBState.IDLE

    def require_state(self, state: ABBState, action: str) -> None:
        """Raise unless the block is in ``state``, the precondition of
        ``action`` ("reserved", "started", "finished")."""
        if self.state is not state:
            raise SimulationError(
                f"ABB {self.abb_id} {action} while {self.state.value}"
            )

    def reserve(self, now: float) -> None:
        """ABC claims the block for a task (operands may still be loading)."""
        self.require_state(ABBState.IDLE, "reserved")
        self.state = ABBState.RESERVED
        self._busy_since = now

    def start_compute(self) -> None:
        """Operands are resident; the pipeline starts streaming."""
        self.require_state(ABBState.RESERVED, "started")
        self.state = ABBState.COMPUTING

    def finish(self, now: float, invocations: int) -> None:
        """Task completed; block returns to the free pool."""
        self.require_state(ABBState.COMPUTING, "finished")
        self.state = ABBState.IDLE
        self.busy_cycles += now - self._busy_since
        self.total_invocations += invocations
        self.total_tasks += 1

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the block was reserved or computing."""
        if elapsed <= 0:
            return 0.0
        busy = self.busy_cycles
        if self.state is not ABBState.IDLE:
            busy += elapsed - self._busy_since
        return min(1.0, busy / elapsed)

    def dynamic_energy_nj(self) -> float:
        """Dynamic energy consumed so far, in nJ."""
        return self.abb_type.dynamic_energy_nj(self.total_invocations)

    def __repr__(self) -> str:
        return (
            f"ABBInstance(id={self.abb_id}, type={self.abb_type.name}, "
            f"island={self.island_id}, state={self.state.value})"
        )
