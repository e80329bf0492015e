"""The simulator core: a time-ordered callback queue and a clock."""

from __future__ import annotations

import typing
from collections import deque
from heapq import heappop, heappush

from repro.engine.event import Event, Timeout
from repro.errors import SimulationError

_INF = float("inf")


class Simulator:
    """Owns simulation time and the pending entries.

    Time is a float measured in cycles of the accelerator/uncore clock.
    Entries execute in ``(time, sequence number)`` order: equal times
    run in insertion order, which makes runs fully deterministic.

    Future entries wait in a heap of ``(time, seq, callback)`` tuples.
    Entries due at exactly ``now`` (kicks, ``succeed()`` and zero
    delays, the majority) go to the *same-time lane*, a FIFO of
    callbacks, at the cost of a deque append instead of a heap push.
    The two keep one total order: an entry is pushed on the heap only
    while the clock is before its time, so every heap entry due at
    ``now`` was scheduled before every lane entry and runs first.
    ``_seq`` still counts every entry, lane included, as the number of
    entries scheduled so far.
    """

    __slots__ = ("now", "_heap", "_lane", "_seq")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, typing.Callable[[], None]]] = []
        self._lane: deque[typing.Callable[[], None]] = deque()
        self._seq = 0

    def _schedule(self, time: float, callback: typing.Callable[[], None]) -> None:
        # The chained comparison rejects past times, NaN (every
        # comparison involving it is false) and +/-inf in one test.
        if not (self.now <= time < _INF):
            raise SimulationError(
                f"cannot schedule at {time!r} (now={self.now}): "
                "times must be finite and not in the past"
            )
        if time == self.now:
            self._lane.append(callback)
        else:
            heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def event(self) -> Event:
        """Create a new pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` cycles from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator) -> "Process":
        """Spawn a new process running ``generator``."""
        from repro.engine.process import Process

        return Process(self, generator)

    def run(self, until: typing.Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the final simulation time.

        The event loop is the hottest code in any simulation.  Each
        step drains the same-time lane, then advances the clock to the
        next heap entry and runs every heap entry due at that time
        (none can be added meanwhile: entries for ``now`` go to the
        lane) before the lane entries they schedule.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until!r}: the clock is already at {self.now}"
            )
        limit = _INF if until is None else until
        heap = self._heap
        lane = self._lane
        pop = heappop
        pop_lane = lane.popleft
        while True:
            while lane:
                pop_lane()()
            if not heap:
                return self.now
            time = heap[0][0]
            if time > limit:
                self.now = limit
                return limit
            self.now = time
            pop(heap)[2]()
            while heap and heap[0][0] == time:
                pop(heap)[2]()

    def peek(self) -> typing.Optional[float]:
        """Time of the next pending entry, or None if the queue is empty."""
        if self._lane:
            return self.now
        return self._heap[0][0] if self._heap else None
