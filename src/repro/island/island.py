"""Island assembly: ABBs + SPM groups + internal networks + NoC interface.

The island exposes three data paths to the system simulator, each
declared once as a stage tuple (see :mod:`repro.engine.pipeline`):

* ``ingress(slot, nbytes)``  — NoC link in -> DMA -> internal net -> SPM;
* ``egress(slot, nbytes)``   — SPM -> internal net -> DMA -> NoC link out;
* ``chain_local(src, dst, nbytes)`` — SPM -> internal net -> SPM.

It also owns slot allocation, including the Section 5.1 neighbour-lockout
semantics of SPM sharing (allocating an ABB temporarily claims its
neighbours' banks, rendering the neighbours unusable).
"""

from __future__ import annotations

import typing

from repro.abb.instance import ABBInstance
from repro.abb.library import ABBLibrary
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
from repro.errors import AllocationError, ConfigError
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
        self.library = library
        self.energy = energy if energy is not None else EnergyAccount()
        self.tracer = tracer

        # Slots: one ABB + one SPM group per slot, laid out in a fixed
        # physical order (types interleaved as given by the mix).
        self.abbs: list[ABBInstance] = []
        self.spm_groups: list[SPMGroup] = []
        next_id = island_id * 10_000
        for type_name in sorted(config.abb_mix):
            abb_type = library.get(type_name)
            for _ in range(config.abb_mix[type_name]):
                self.abbs.append(ABBInstance(next_id, abb_type, island_id))
                self.spm_groups.append(SPMGroup(abb_type, config.spm_porting))
                next_id += 1

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
        self._neighbor_locks = [0] * len(self.abbs)
        # Fault state: a failed slot is permanently out of service for
        # *new* allocations; an in-flight task drains and releases
        # normally (fail-stop after drain).
        self.fault_injector = fault_injector
        self._failed = [False] * len(self.abbs)
        # Allocation-policy hot-path state: the slot layout is fixed
        # after construction, so the per-type slot lists are built once,
        # and the busy count is maintained by allocate/release instead
        # of recounted per query (busy_fraction runs on every policy
        # evaluation of every request).
        self._slots_by_type: dict[str, list[int]] = {}
        for index, abb in enumerate(self.abbs):
            self._slots_by_type.setdefault(abb.abb_type.name, []).append(index)
        self._slot_count = len(self.abbs)
        self._busy_slots = 0
        self.abb_tracker = UtilizationTracker(
            capacity=len(self.abbs), name=f"island{island_id}.abbs"
        )

        # Data paths.  ``run.ctx`` is ``(src_slot, dst_slot)``, None
        # standing for the DMA engine.  With a tracer attached each leg
        # records a span; with the DMA fault model active the DMA leg
        # stalls, drops and retries.
        def span(suffix: str, kind: str):
            if tracer is None:
                return None
            return (tracer, f"island{island_id}.{suffix}", kind)

        if fault_injector is not None and fault_injector.spec.dma_faults_enabled:
            dma = (DMA, (self.dma, fault_injector, island_id), span("dma", "dma"))
        else:
            dma = (LEG, self.dma, span("dma", "dma"))
        net = (HOOK, self._network_leg, span("net", "spm_net"))
        read = (HOOK, self._spm_read, None)
        write = (HOOK, self._spm_write, None)
        self._ingress_path = (
            (LEG, self.noc_in, span("noc_in", "noc_if")), dma, net, write
        )
        self._egress_path = (
            read, net, dma, (LEG, self.noc_out, span("noc_out", "noc_if"))
        )
        self._chain_path = (read, net, write)

    # -------------------------------------------------------------- queries
    @property
    def n_slots(self) -> int:
        """Number of ABB slots on the island."""
        return len(self.abbs)

    def slots_of_type(self, type_name: str) -> list[int]:
        """Slot indices whose ABB is of ``type_name``.

        The layout is fixed at construction, so this returns the
        precomputed list — callers must not mutate it.
        """
        slots = self._slots_by_type.get(type_name)
        return slots if slots is not None else []

    def slot_usable(self, slot: int) -> bool:
        """Whether a slot can be allocated right now.

        Requires an operational (non-failed) slot, a free ABB, a free SPM
        group, and — with sharing enabled — that no neighbour has
        borrowed the slot's banks.
        """
        self._check_slot(slot)
        if self._failed[slot]:
            return False
        if not self.abbs[slot].is_free or not self.spm_groups[slot].is_free:
            return False
        if self.config.spm_sharing and self._neighbor_locks[slot] > 0:
            return False
        return True

    def free_slots(self, type_name: str) -> list[int]:
        """Usable slots of a given ABB type."""
        return [s for s in self.slots_of_type(type_name) if self.slot_usable(s)]

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
        """Fraction of slots currently allocated (O(1), maintained)."""
        return self._busy_slots / self._slot_count

    # ----------------------------------------------------------- allocation
    def allocate(self, slot: int, owner: object) -> None:
        """Claim a slot for a task; applies sharing lockout to neighbours."""
        if not self.slot_usable(slot):
            raise AllocationError(
                f"island {self.island_id}: slot {slot} not usable"
            )
        self.abbs[slot].reserve(self.sim.now)
        self.spm_groups[slot].acquire(owner)
        if self.config.spm_sharing:
            for neighbor in self._neighbors(slot):
                self._neighbor_locks[neighbor] += 1
        self._busy_slots += 1
        self.abb_tracker.adjust(+1, self.sim.now)

    def release(self, slot: int, owner: object, invocations: int) -> None:
        """Return a slot to the pool after its task completes."""
        self._check_slot(slot)
        self.abbs[slot].finish(self.sim.now, invocations)
        self.spm_groups[slot].release(owner)
        if self.config.spm_sharing:
            for neighbor in self._neighbors(slot):
                if self._neighbor_locks[neighbor] <= 0:
                    raise AllocationError("sharing lock underflow")
                self._neighbor_locks[neighbor] -= 1
        self._busy_slots -= 1
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
        return self.abbs[slot].abb_type.name

    def _neighbors(self, slot: int) -> list[int]:
        return [n for n in (slot - 1, slot + 1) if 0 <= n < len(self.abbs)]

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self.abbs):
            raise ConfigError(f"slot {slot} out of range")

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
        abb = self.abbs[slot]
        group = self.spm_groups[slot]
        abb.start_compute()
        cycles = abb.abb_type.compute_cycles(invocations)
        cycles *= 1.0 + group.conflict_penalty()
        self.energy.charge("abb", abb.abb_type.dynamic_energy_nj(invocations))
        return self.sim.delay(cycles, invocations)

    # ------------------------------------------------------------ physicals
    def area_breakdown_mm2(self) -> dict[str, float]:
        """Area of every island component (Section 5.7 accounting)."""
        abb_area = sum(abb.abb_type.area_mm2 for abb in self.abbs)
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
        abb_static = sum(abb.abb_type.static_power_mw for abb in self.abbs)
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

    def peak_abb_utilization(self) -> float:
        """Peak fraction of simultaneously busy ABBs."""
        return self.abb_tracker.peak_utilization
