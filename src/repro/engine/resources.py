"""Shared-resource primitives: semaphores, FIFO stores and bandwidth servers.

These are the contention models used throughout the architecture
simulation.  A :class:`BandwidthServer` is the workhorse: it models a link
or port that serializes transfers at a fixed bytes/cycle rate, which is how
NoC links, ring segments, DMA engines and memory channels are represented.
"""

from __future__ import annotations

import collections
import typing

from repro.engine.event import Event
from repro.engine.pipeline import as_event
from repro.errors import CapacityError, ConfigError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator

_INF = float("inf")


class Resource:
    """A counting semaphore with a FIFO wait queue.

    ``request()`` returns an event that fires when a slot is granted; the
    holder must call ``release()`` exactly once per grant.
    """

    __slots__ = ("sim", "capacity", "in_use", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ConfigError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: collections.deque[Event] = collections.deque()

    @property
    def available(self) -> int:
        """Number of free slots right now."""
        return self.capacity - self.in_use

    def request(self) -> Event:
        """Return an event that fires when a slot is acquired."""
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free one slot, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise CapacityError("release() without a matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter; in_use is unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        """Number of requests currently waiting."""
        return len(self._waiters)


class Store:
    """An unbounded FIFO queue of items with blocking ``get``."""

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def put(self, item: object) -> None:
        """Deposit an item, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class BandwidthServer:
    """A FIFO-serialized channel with a fixed service rate.

    ``transfer(nbytes)`` returns an event firing when the transfer has
    fully drained through the channel.  Transfers queue behind one another,
    so the completion time of a transfer issued at ``t`` is::

        max(t, channel_free_time) + latency + nbytes / bytes_per_cycle

    ``latency`` models fixed per-transfer overhead (router pipeline,
    request setup) that does not occupy the channel.

    The server tracks busy time so utilization and total bytes moved can be
    reported after a run.
    """

    def __init__(
        self,
        sim: "Simulator",
        bytes_per_cycle: float,
        latency: float = 0.0,
        name: str = "",
    ) -> None:
        if bytes_per_cycle <= 0:
            raise ConfigError(
                f"bandwidth must be positive, got {bytes_per_cycle} (server {name!r})"
            )
        if latency < 0:
            raise ConfigError(f"latency must be non-negative, got {latency}")
        self.sim = sim
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.name = name
        self._free_at = 0.0
        self.busy_cycles = 0.0
        self.total_bytes = 0.0
        self.total_transfers = 0
        # Completion time of the most recent transfer, e.g. for the
        # span of a leg whose Event the caller hands on unwrapped.
        self.last_done = 0.0

    def reserve(self, nbytes: float) -> float:
        """Account one transfer; returns its completion time.

        The server's one accounting site: FIFO queueing behind
        ``_free_at``, busy time, bytes and the transfer count.  It
        schedules nothing; :meth:`transfer` adds the one heap entry,
        and pipelines schedule their own wake-up at the returned time.
        A negative, NaN or infinite size is rejected before any
        accounting, so a bad transfer cannot leave the server's
        counters poisoned.
        """
        if not (0.0 <= nbytes < _INF):
            raise ConfigError(
                f"transfer size must be finite and non-negative, got {nbytes!r}"
            )
        now = self.sim.now
        free_at = self._free_at
        start = now if now > free_at else free_at
        occupancy = nbytes / self.bytes_per_cycle
        self._free_at = start + occupancy
        self.busy_cycles += occupancy
        self.total_bytes += nbytes
        self.total_transfers += 1
        done = start + occupancy + self.latency
        self.last_done = done
        return done

    def transfer(self, nbytes: float) -> Event:
        """Enqueue a transfer; the returned event fires at completion."""
        return as_event(self.sim, self.reserve(nbytes), nbytes)

    def transfer_analytic(self, nbytes: float) -> typing.Union[float, Event]:
        """Fast-path transfer: a float when uncontended, an event when not.

        When the channel is idle at issue time the completion time is
        known in closed form and returned directly — no event object,
        no heap entry.  The moment a second requester overlaps
        (``_free_at`` is still in the future) this defers to
        :meth:`transfer`, the exact queued model; both paths run the
        same :meth:`reserve` accounting, so completion times are
        identical by construction.
        """
        if self._free_at <= self.sim.now:
            return self.reserve(nbytes)
        return self.transfer(nbytes)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` cycles the channel was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    @property
    def backlog_cycles(self) -> float:
        """Cycles of queued work ahead of a transfer issued right now."""
        return max(0.0, self._free_at - self.sim.now)


class AllOf(Event):
    """An event that fires once all child events have fired.

    The value is the list of child values in the order given.

    Every child shares one bound callback (no per-child closure); the
    value list is gathered from the children when the last one fires —
    an event's value never changes after it triggers, so the gathered
    list is identical to one captured fire-by-fire.
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]) -> None:
        super().__init__(sim)
        count = len(events)
        self._pending = count
        if count == 0:
            self._children: typing.Tuple[Event, ...] = ()
            self.succeed([])
            return
        children = self._children = tuple(events)
        on_child = self._on_child
        for child in children:
            child.add_callback(on_child)

    def _on_child(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._children])
