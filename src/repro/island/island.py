"""Island assembly: ABBs + SPM groups + internal networks + NoC interface.

The island exposes three data paths to the system simulator, each
declared once as a stage tuple (see :mod:`repro.engine.pipeline`):

* ``ingress(slot, nbytes)``  — NoC link in -> DMA -> internal net -> SPM;
* ``egress(slot, nbytes)``   — SPM -> internal net -> DMA -> NoC link out;
* ``chain_local(src, dst, nbytes)`` — SPM -> internal net -> SPM.

It also owns slot allocation and is the one record of slot occupancy:
each slot's holder (the ABC's grant, None when free) and whether its ABB
is computing.  Allocation includes the Section 5.1 neighbour-lockout
semantics of SPM sharing (allocating an ABB temporarily claims its
neighbours' banks, rendering the neighbours unusable).
"""

from __future__ import annotations

import typing

from repro.abb.library import ABBLibrary
from repro.abb.types import ABBType
from repro.engine import (
    DMA,
    HOOK,
    LEG,
    BandwidthServer,
    Event,
    Pipeline,
    Simulator,
    UtilizationTracker,
)
from repro.engine.trace import Tracer
from repro.errors import AllocationError, ConfigError, SimulationError
from repro.faults import FaultInjector
from repro.island.config import IslandConfig
from repro.island.networks import SpmDmaNetwork, build_network
from repro.island.spm import SPMGroup
from repro.power.aggregate import EnergyAccount
from repro.power.orion import STATIC_MW_PER_MM2, crossbar_area_mm2

#: Fixed area of the island's DMA engine, mm^2.
DMA_ENGINE_AREA_MM2 = 0.30

#: Fixed area of the island's NoC interface, mm^2.
NOC_INTERFACE_AREA_MM2 = 0.20

#: Latency of the island's NoC interface (buffering/serialization), cycles.
NOC_INTERFACE_LATENCY = 4.0


class Island:
    """One ABB island instance inside a simulated system."""

    def __init__(
        self,
        sim: Simulator,
        island_id: int,
        config: IslandConfig,
        library: ABBLibrary,
        energy: typing.Optional[EnergyAccount] = None,
        fault_injector: typing.Optional[FaultInjector] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        library.validate_mix(config.abb_mix)
        self.sim = sim
        self.island_id = island_id
        self.config = config
        self.energy = energy if energy is not None else EnergyAccount()

        # Slots: one ABB + one SPM group per slot, laid out in a fixed
        # physical order (types in name order, as many as the mix gives).
        self.slot_types: tuple[ABBType, ...] = tuple(
            library.get(type_name)
            for type_name in sorted(config.abb_mix)
            for _ in range(config.abb_mix[type_name])
        )
        self.spm_groups = [
            SPMGroup(abb_type, config.spm_porting) for abb_type in self.slot_types
        ]
        self.n_slots = n_slots = len(self.slot_types)
        # Slot occupancy: the holder of each slot (None when free) and
        # whether its ABB is computing.  A held slot that is not
        # computing is reserved: its operands may still be loading.
        self._holders: list[object] = [None] * n_slots
        self._computing = [False] * n_slots

        self.network: SpmDmaNetwork = build_network(
            sim,
            [group.banks for group in self.spm_groups],
            config.network,
            self.energy,
        )
        self.noc_in = BandwidthServer(
            sim,
            bytes_per_cycle=config.noc_link_bytes_per_cycle,
            latency=NOC_INTERFACE_LATENCY,
            name=f"island{island_id}.noc_in",
        )
        self.noc_out = BandwidthServer(
            sim,
            bytes_per_cycle=config.noc_link_bytes_per_cycle,
            latency=NOC_INTERFACE_LATENCY,
            name=f"island{island_id}.noc_out",
        )
        self.dma = BandwidthServer(
            sim,
            bytes_per_cycle=config.dma_bytes_per_cycle,
            latency=1.0,
            name=f"island{island_id}.dma",
        )
        # The proxy crossbar chains store-and-forward through the DMA
        # engine; couple them so chaining competes with memory traffic.
        attach = getattr(self.network, "attach_dma", None)
        if attach is not None:
            attach(self.dma)

        # Sharing lockout bookkeeping (Sec. 5.1): count of neighbours that
        # currently borrow this slot's banks.
        self._neighbor_locks = [0] * n_slots
        # Fault state: a failed slot is permanently out of service for
        # *new* allocations; an in-flight task drains and releases
        # normally (fail-stop after drain).
        self._failed = [False] * n_slots
        # Allocation-policy hot-path state: the slot layout is fixed
        # after construction, so the per-type slot lists are built once.
        self._slots_by_type: dict[str, list[int]] = {}
        for index, abb_type in enumerate(self.slot_types):
            self._slots_by_type.setdefault(abb_type.name, []).append(index)
        # The neighbours whose banks a slot borrows while allocated
        # (Sec. 5.1): its physical neighbours with SPM sharing, none
        # without.
        self._neighbors = [
            tuple(n for n in (slot - 1, slot + 1) if 0 <= n < n_slots)
            if config.spm_sharing
            else ()
            for slot in range(n_slots)
        ]
        # The usable-slot index: per type, the ascending tuple of slots
        # `slot_usable` accepts.  Usability only changes in allocate,
        # release and fail_slot, which re-derive it for the slots they
        # touch (`_reindex`), so a free-slot query costs a dict lookup
        # instead of one predicate call per slot of the type.
        self._usable: dict[str, tuple[int, ...]] = {
            type_name: tuple(s for s in slots if self.slot_usable(s))
            for type_name, slots in self._slots_by_type.items()
        }
        self.abb_tracker = UtilizationTracker(
            capacity=n_slots, name=f"island{island_id}.abbs"
        )

        # Data paths.  ``run.ctx`` is ``(src_slot, dst_slot)``, None
        # standing for the DMA engine.  With a tracer attached each leg
        # records a span; with the DMA fault model active the DMA leg
        # stalls, drops and retries.
        def stage_span(suffix: str, kind: str):
            if tracer is None:
                return None
            return (tracer, f"island{island_id}.{suffix}", kind)

        if fault_injector is not None and fault_injector.spec.dma_faults_enabled:
            dma = (
                DMA, (self.dma, fault_injector, island_id), stage_span("dma", "dma")
            )
        else:
            dma = (LEG, self.dma, stage_span("dma", "dma"))
        net = (HOOK, self._network_leg, stage_span("net", "spm_net"))
        read = (HOOK, self._spm_read, None)
        write = (HOOK, self._spm_write, None)
        self._ingress_path = (
            (LEG, self.noc_in, stage_span("noc_in", "noc_if")), dma, net, write
        )
        self._egress_path = (
            read, net, dma, (LEG, self.noc_out, stage_span("noc_out", "noc_if"))
        )
        self._chain_path = (read, net, write)

    # -------------------------------------------------------------- queries
    def slots_of_type(self, type_name: str) -> list[int]:
        """Slot indices whose ABB is of ``type_name``.

        The layout is fixed at construction, so this returns the
        precomputed list — callers must not mutate it.
        """
        slots = self._slots_by_type.get(type_name)
        return slots if slots is not None else []

    def slot_usable(self, slot: int) -> bool:
        """Whether a slot can be allocated right now.

        Requires an operational (non-failed) slot that no task holds,
        and — with sharing enabled — that no neighbour has borrowed the
        slot's banks.
        """
        self._check_slot(slot)
        return not (
            self._failed[slot]
            or self._holders[slot] is not None
            or self._neighbor_locks[slot]
        )

    def free_slots(self, type_name: str) -> tuple[int, ...]:
        """Usable slots of a given ABB type, ascending (O(1), maintained)."""
        return self._usable.get(type_name, ())

    def operational_slots(self, type_name: str) -> list[int]:
        """Non-failed slots of a type (free *or* busy).

        A busy operational slot will serve again after release, so queued
        requests for its type can still make progress; a failed slot
        never will.
        """
        return [
            s for s in self.slots_of_type(type_name) if not self._failed[s]
        ]

    @property
    def failed_slot_count(self) -> int:
        """Number of slots taken out of service by fault injection."""
        return sum(1 for failed in self._failed if failed)

    def busy_fraction(self) -> float:
        """Fraction of slots currently allocated (O(1): ``abb_tracker``
        keeps the busy count)."""
        return self.abb_tracker.level / self.n_slots

    # ----------------------------------------------------------- allocation
    def allocate(self, slot: int, owner: object) -> None:
        """Claim a slot for ``owner``; applies sharing lockout to
        neighbours.  Only ``owner`` can release it."""
        if not self.slot_usable(slot):
            raise AllocationError(
                f"island {self.island_id}: slot {slot} not usable"
            )
        self._holders[slot] = owner
        neighbors = self._neighbors[slot]
        for neighbor in neighbors:
            self._neighbor_locks[neighbor] += 1
        self._reindex((slot,) + neighbors)
        self.abb_tracker.adjust(+1, self.sim.now)

    def release(self, slot: int, owner: object) -> None:
        """Return a slot to the pool after its task completes.

        Every check runs before anything changes, so a bad release
        (a block that is not computing, a caller that is not the
        holder) raises and leaves the slot and the usable-slot index as
        they were.
        """
        self._check_slot(slot)
        if not self._computing[slot]:
            self._raise_state(slot, "finished")
        if self._holders[slot] is not owner:
            raise SimulationError(
                f"island {self.island_id}: slot {slot} released by non-owner"
            )
        neighbors = self._neighbors[slot]
        if any(self._neighbor_locks[n] <= 0 for n in neighbors):
            raise AllocationError("sharing lock underflow")
        self._holders[slot] = None
        self._computing[slot] = False
        for neighbor in neighbors:
            self._neighbor_locks[neighbor] -= 1
        self._reindex((slot,) + neighbors)
        self.abb_tracker.adjust(-1, self.sim.now)

    def fail_slot(self, slot: int) -> str:
        """Take a slot permanently out of service (ABB hard failure).

        Idempotent-safe for planning code: failing an already-failed slot
        is an error, since the fault plan draws slots without
        replacement.  Returns the failed slot's ABB type so the caller
        (the ABC) can re-evaluate queued requests for that type.
        """
        self._check_slot(slot)
        if self._failed[slot]:
            raise AllocationError(
                f"island {self.island_id}: slot {slot} already failed"
            )
        self._failed[slot] = True
        self._reindex((slot,))
        return self.slot_types[slot].name

    def _reindex(self, slots: tuple[int, ...]) -> None:
        """Re-derive the usable-slot index entries of ``slots`` (the only
        slots whose usability the caller just changed)."""
        usable = self._usable
        for slot in slots:
            type_name = self.slot_types[slot].name
            current = usable[type_name]
            if self.slot_usable(slot):
                if slot not in current:
                    usable[type_name] = tuple(sorted(current + (slot,)))
            elif slot in current:
                usable[type_name] = tuple(s for s in current if s != slot)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise ConfigError(f"slot {slot} out of range")

    def _raise_state(self, slot: int, action: str) -> typing.NoReturn:
        """Raise for ``action`` ("started", "finished") on a slot whose
        state does not allow it."""
        state = "computing" if self._computing[slot] else (
            "idle" if self._holders[slot] is None else "reserved"
        )
        raise SimulationError(
            f"island {self.island_id}: slot {slot} {action} while {state}"
        )

    # ------------------------------------------------------------ data path
    def _spm_read(self, run: Pipeline) -> None:
        self.energy.charge(
            "spm", self.spm_groups[run.ctx[0]].record_read(run.nbytes)
        )

    def _spm_write(self, run: Pipeline) -> None:
        self.energy.charge(
            "spm", self.spm_groups[run.ctx[1]].record_write(run.nbytes)
        )

    def _network_leg(self, run: Pipeline) -> typing.Union[float, Event]:
        src_slot, dst_slot = run.ctx
        return self.network.leg(src_slot, dst_slot, run.nbytes)

    def ingress(self, slot: int, nbytes: float, ref: str = "") -> Event:
        """Bring ``nbytes`` from the NoC into a slot's SPM."""
        self._check_slot(slot)
        return Pipeline(self.sim, self._ingress_path, nbytes, ref, (None, slot)).event

    def egress(self, slot: int, nbytes: float, ref: str = "") -> Event:
        """Send ``nbytes`` from a slot's SPM out to the NoC."""
        self._check_slot(slot)
        return Pipeline(self.sim, self._egress_path, nbytes, ref, (slot, None)).event

    def chain_local(
        self, src_slot: int, dst_slot: int, nbytes: float, ref: str = ""
    ) -> Event:
        """Move chained data between two slots on this island."""
        self._check_slot(src_slot)
        self._check_slot(dst_slot)
        return Pipeline(
            self.sim, self._chain_path, nbytes, ref, (src_slot, dst_slot)
        ).event

    def compute(self, slot: int, invocations: int) -> Event:
        """Run ``invocations`` through a reserved slot's ABB pipeline."""
        self._check_slot(slot)
        if self._holders[slot] is None or self._computing[slot]:
            self._raise_state(slot, "started")
        self._computing[slot] = True
        abb_type = self.slot_types[slot]
        cycles = abb_type.compute_cycles(invocations)
        cycles *= 1.0 + self.spm_groups[slot].conflict_penalty()
        self.energy.charge("abb", abb_type.dynamic_energy_nj(invocations))
        return self.sim.timeout(cycles, invocations)

    # ------------------------------------------------------------ physicals
    def area_breakdown_mm2(self) -> dict[str, float]:
        """Area of every island component (Section 5.7 accounting)."""
        abb_area = sum(t.area_mm2 for t in self.slot_types)
        spm_area = sum(group.area_mm2 for group in self.spm_groups)
        sharing_factor = 3 if self.config.spm_sharing else 1
        abb_spm_xbar = sum(
            crossbar_area_mm2(
                1,
                sharing_factor * group.banks,
                self.config.abb_spm_width_bytes,
            )
            for group in self.spm_groups
        )
        return {
            "abbs": abb_area,
            "spm": spm_area,
            "abb_spm_crossbar": abb_spm_xbar,
            "spm_dma_network": self.network.area_mm2,
            "dma": DMA_ENGINE_AREA_MM2,
            "noc_interface": NOC_INTERFACE_AREA_MM2,
        }

    @property
    def area_mm2(self) -> float:
        """Total island area."""
        return sum(self.area_breakdown_mm2().values())

    @property
    def static_power_mw(self) -> float:
        """Total island leakage: ABBs + SPM + networks + fixed blocks."""
        abb_static = sum(t.static_power_mw for t in self.slot_types)
        spm_static = sum(group.static_power_mw for group in self.spm_groups)
        breakdown = self.area_breakdown_mm2()
        fixed_area = (
            breakdown["abb_spm_crossbar"] + breakdown["dma"] + breakdown["noc_interface"]
        )
        return (
            abb_static
            + spm_static
            + self.network.static_power_mw
            + STATIC_MW_PER_MM2 * fixed_area
        )

    def average_abb_utilization(self, elapsed: float) -> float:
        """Time-weighted average fraction of busy ABBs."""
        return self.abb_tracker.average_utilization(elapsed)
