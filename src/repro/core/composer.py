"""The Accelerator Block Composer (ABC).

CHARM extends the GAM with an ABC that consumes compiler-produced ABB
flow graphs at runtime, dynamically allocating free ABBs across islands
to compose virtual accelerators, and load-balancing work over the
available compute resources [8].

The ABC here is the allocation authority of the simulated system: every
task asks it for an ABB of the right type and receives a :class:`Grant`
naming ``(island, slot)``, possibly after waiting FIFO for one to free
up.  The grant itself is the slot's holder on the island, so only the
grant the ABC handed out can release the slot.

Under fault injection the ABC is also the graceful-degradation
authority: failed slots are skipped (virtual accelerators re-compose
from survivors automatically, since every allocation re-runs the
policy), and when a hard failure removes the *last* operational slot of
a type the ABC resolves affected requests — queued or new — with
:data:`SOFTWARE_FALLBACK` instead of deadlocking, mirroring ARC's GAM
wait-time-feedback decision to run in software.
"""

from __future__ import annotations

import collections
import typing
from dataclasses import dataclass

from repro.core.allocation import AllocationPolicy, locality_then_load_balance
from repro.engine import Event, Simulator
from repro.engine.stats import Histogram
from repro.errors import AllocationError, ConfigError
from repro.island.island import Island

#: Sentinel value a :meth:`AcceleratorBlockComposer.request` event fires
#: with when no operational ABB of the requested type remains anywhere on
#: the platform; the caller must run the task in software on the cores.
SOFTWARE_FALLBACK = "software-fallback"


@dataclass(frozen=True)
class Grant:
    """An allocated ABB slot, returned by :meth:`ABC.request`.

    The island records this object as the slot's holder and releases
    the slot only to it, not to an equal copy.

    Attributes:
        island_index: Which island the block sits on.
        slot: Slot index within the island.
        type_name: ABB type of the slot.
        granted_at: Simulation time the slot was handed out (feeds the
            ABC's per-type service-time statistics on release).
    """

    island_index: int
    slot: int
    type_name: str
    granted_at: float = 0.0


@dataclass
class _Waiter:
    """A queued allocation request."""

    event: Event
    type_name: str
    preferred: typing.Optional[int]
    requested_at: float


class AcceleratorBlockComposer:
    """Allocates ABB slots across islands for flow-graph tasks."""

    def __init__(
        self,
        sim: Simulator,
        islands: typing.Sequence[Island],
        policy: AllocationPolicy = locality_then_load_balance,
    ) -> None:
        if not islands:
            raise ConfigError("ABC needs at least one island")
        self.sim = sim
        self.islands = list(islands)
        self.policy = policy
        self._waiters: collections.deque[_Waiter] = collections.deque()
        # Queued waiters per type, kept in step with `_waiters`.
        self._queued: dict[str, int] = {}
        self._serial = 0
        # Island ABB mixes are fixed at construction, so the set of
        # types the platform carries never changes; until the fault
        # layer reports a hard failure every such slot is operational,
        # which makes both request-path checks O(1) on clean platforms.
        self._types = frozenset(
            t.name for island in self.islands for t in island.slot_types
        )
        self._any_failures = False
        self.wait_cycles = Histogram("abc.wait")
        self.service_cycles = Histogram("abc.service")
        self.total_queued = 0
        self.fallback_grants = 0

    # ------------------------------------------------------------ internals
    def _type_operational(self, type_name: str) -> bool:
        """Whether any non-failed slot of a type survives anywhere.

        A busy operational slot counts: it will free up and serve queued
        requests.  Only when every slot of the type has hard-failed is
        hardware composition impossible.
        """
        if not self._any_failures:
            return type_name in self._types
        return any(
            island.operational_slots(type_name) for island in self.islands
        )

    def _try_allocate(
        self, type_name: str, preferred: typing.Optional[int]
    ) -> typing.Optional[Grant]:
        order = self.policy(self.islands, preferred, self._serial)
        self._serial += 1
        for island_idx in order:
            free = self.islands[island_idx].free_slots(type_name)
            if free:
                grant = Grant(island_idx, free[0], type_name, self.sim.now)
                self.islands[island_idx].allocate(grant.slot, grant)
                return grant
        return None

    # --------------------------------------------------------------- public
    def request(
        self,
        type_name: str,
        preferred_island: typing.Optional[int] = None,
    ) -> Event:
        """Request an ABB of ``type_name``.

        The returned event fires with a :class:`Grant` once a block has
        been allocated; the caller must eventually :meth:`release` it.
        If hard failures have taken every slot of the type out of
        service, the event instead fires immediately with
        :data:`SOFTWARE_FALLBACK` and the caller runs in software.
        """
        if type_name not in self._types:
            raise AllocationError(
                f"no island carries ABB type {type_name!r}; "
                f"the platform cannot compose this graph"
            )
        event = Event(self.sim)
        if not self._type_operational(type_name):
            self.fallback_grants += 1
            event.succeed(SOFTWARE_FALLBACK)
            return event
        grant = self._try_allocate(type_name, preferred_island)
        if grant is not None:
            self.wait_cycles.record(0.0)
            event.succeed(grant)
        else:
            self.total_queued += 1
            self._waiters.append(
                _Waiter(event, type_name, preferred_island, self.sim.now)
            )
            self._queued[type_name] = self._queued.get(type_name, 0) + 1
        return event

    def release(self, grant: Grant) -> None:
        """Return a granted slot; retries queued waiters in FIFO order."""
        if not 0 <= grant.island_index < len(self.islands):
            raise ConfigError(f"island index {grant.island_index} out of range")
        # The island validates before it mutates; recording afterwards
        # keeps a rejected release (e.g. a double release) out of the
        # service-time statistics too.
        self.islands[grant.island_index].release(grant.slot, grant)
        self.service_cycles.record(self.sim.now - grant.granted_at)
        self._drain_waiters()

    def _drain_waiters(self) -> None:
        # Retry waiters in FIFO order until a pass grants nothing (a
        # release can free neighbours too, under SPM sharing, so one
        # release may unblock several waiters).
        #
        # Each pass first bounds, per queued type, how many waiters it
        # can serve: all of them when the type has no operational slot
        # left (software fallback), else at most its free-slot count.
        # The scan then stops as soon as nothing servable is left
        # unscanned; the unscanned suffix keeps its order.  A waiter
        # that cannot be served consumes one allocation serial whether
        # it is skipped or its `_try_allocate` fails, so the suffix
        # advances `_serial` by its length and every decision (which may
        # read the serial, e.g. round_robin) matches a full rescan.  A
        # bound only overestimates (grants never free slots mid-pass);
        # an overestimate costs one failing `_try_allocate`, which zeroes
        # it.  A pass that can serve nothing costs O(types).
        waiters = self._waiters
        queued = self._queued
        progress = True
        while progress and waiters:
            progress = False
            servable = 0
            bound: dict[str, int] = {}
            fallback: set[str] = set()
            for type_name, count in queued.items():
                if not count:
                    continue
                if not self._type_operational(type_name):
                    fallback.add(type_name)
                    bound[type_name] = count
                else:
                    bound[type_name] = min(count, self.free_count(type_name))
                servable += bound[type_name]
            requeued: collections.deque[_Waiter] = collections.deque()
            while servable:
                waiter = waiters.popleft()
                type_name = waiter.type_name
                if not bound[type_name]:
                    self._serial += 1
                    requeued.append(waiter)
                    continue
                if type_name in fallback:
                    # Every slot of this type hard-failed while the
                    # request was queued; resolve it to software rather
                    # than strand it forever.
                    resolution: object = SOFTWARE_FALLBACK
                    self.fallback_grants += 1
                else:
                    grant = self._try_allocate(type_name, waiter.preferred)
                    if grant is None:
                        # SPM-sharing lockout shrank the free slots
                        # mid-pass: the bound was stale.
                        servable -= bound[type_name]
                        bound[type_name] = 0
                        requeued.append(waiter)
                        continue
                    resolution = grant
                    self.wait_cycles.record(self.sim.now - waiter.requested_at)
                progress = True
                bound[type_name] -= 1
                servable -= 1
                queued[type_name] -= 1
                waiter.event.succeed(resolution)
            self._serial += len(waiters)
            waiters.extendleft(reversed(requeued))

    def on_slot_failed(self, type_name: str) -> None:
        """React to an ABB hard failure reported by the fault layer.

        Re-evaluates the wait queue: waiters for a type that just lost
        its last operational slot are resolved to software fallback
        immediately (they can never be served in hardware).
        """
        self._any_failures = True
        if self._waiters:
            self._drain_waiters()

    # -------------------------------------------------------------- queries
    def queue_length(self) -> int:
        """Requests currently waiting for any type."""
        return len(self._waiters)

    def free_count(self, type_name: str) -> int:
        """Usable slots of a type across all islands right now."""
        return sum(len(i.free_slots(type_name)) for i in self.islands)

    def operational_count(self, type_name: str) -> int:
        """Non-failed slots of a type across all islands (busy or free)."""
        return sum(len(i.operational_slots(type_name)) for i in self.islands)

    def pending_requests(self, type_name: str) -> int:
        """Queued allocation requests for one type (O(1), maintained)."""
        return self._queued.get(type_name, 0)

    def estimate_wait(
        self, type_name: str, service_hint: typing.Optional[float] = None
    ) -> float:
        """GAM-style wait-time feedback for one ABB type.

        Zero when a slot is free.  Otherwise the expected cycles until a
        slot frees up for a request issued *now*: the queue depth ahead
        of it plus the in-service blocks, times the observed mean
        hold time per grant, divided by the number of operational slots
        (slots drain the queue in parallel).  ``service_hint`` seeds the
        mean before any release has been observed (e.g. the compiler's
        cycle estimate); infinite when every slot of the type has
        hard-failed, since hardware composition can never happen.
        Monotone in queue depth, which is what makes it usable as an
        admission signal (see :mod:`repro.serve.frontend`).
        """
        if self.free_count(type_name) > 0:
            return 0.0
        units = self.operational_count(type_name)
        if units == 0:
            return float("inf")
        mean_service = (
            self.service_cycles.mean
            or service_hint
            or self.wait_cycles.mean
            or 1.0
        )
        ahead = self.pending_requests(type_name) + units
        return ahead * mean_service / units
