"""Tests for the island assembly: allocation, data paths, area/power."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abb import standard_library
from repro.engine import Simulator
from repro.errors import AllocationError, ConfigError, SimulationError
from repro.island import Island, IslandConfig, NetworkKind, SpmDmaNetworkConfig, SpmPorting
from repro.power import EnergyAccount

SMALL_MIX = {"poly": 3, "div": 1, "sum": 1}


def make_island(**overrides):
    sim = Simulator()
    energy = EnergyAccount()
    defaults = dict(abb_mix=dict(SMALL_MIX))
    defaults.update(overrides)
    config = IslandConfig(**defaults)
    island = Island(sim, island_id=0, config=config, library=standard_library(), energy=energy)
    return sim, island, energy


class TestConstruction:
    def test_slot_count_matches_mix(self):
        _, island, _ = make_island()
        assert island.n_slots == 5
        assert len(island.slots_of_type("poly")) == 3
        assert len(island.slots_of_type("div")) == 1

    def test_unknown_type_in_mix_rejected(self):
        with pytest.raises(ConfigError):
            make_island(abb_mix={"fft": 2})


class TestAllocation:
    def test_allocate_and_release(self):
        sim, island, _ = make_island()
        slot = island.free_slots("poly")[0]
        island.allocate(slot, owner="t1")
        assert not island.slot_usable(slot)
        assert island.busy_fraction() == pytest.approx(1 / 5)
        island.compute(slot, invocations=10)
        island.release(slot, owner="t1")
        assert island.slot_usable(slot)

    def test_allocate_busy_slot_rejected(self):
        _, island, _ = make_island()
        island.allocate(0, "a")
        with pytest.raises(AllocationError):
            island.allocate(0, "b")

    def test_free_slots_by_type(self):
        _, island, _ = make_island()
        poly_slots = island.free_slots("poly")
        island.allocate(poly_slots[0], "x")
        assert len(island.free_slots("poly")) == 2

    def test_sharing_locks_out_neighbours(self):
        """Section 5.1: allocating an ABB renders nearby ABBs unusable."""
        _, island, _ = make_island(spm_sharing=True)
        island.allocate(2, "t")
        assert not island.slot_usable(1)
        assert not island.slot_usable(3)
        assert island.slot_usable(0)
        assert island.slot_usable(4)

    def test_sharing_release_unlocks(self):
        _, island, _ = make_island(spm_sharing=True)
        island.allocate(2, "t")
        island.compute(2, invocations=1)
        island.release(2, "t")
        assert island.slot_usable(1)
        assert island.slot_usable(3)

    def test_no_sharing_neighbours_unaffected(self):
        _, island, _ = make_island(spm_sharing=False)
        island.allocate(2, "t")
        assert island.slot_usable(1)
        assert island.slot_usable(3)

    def test_sharing_reduces_effective_parallelism(self):
        """With sharing, fewer ABBs can be concurrently allocated."""
        _, shared, _ = make_island(spm_sharing=True, abb_mix={"poly": 6})
        _, private, _ = make_island(spm_sharing=False, abb_mix={"poly": 6})

        def max_parallel(island):
            count = 0
            while True:
                free = island.free_slots("poly")
                if not free:
                    return count
                island.allocate(free[0], f"t{count}")
                count += 1

        assert max_parallel(shared) < max_parallel(private)


def slot_state(island):
    """Everything a release touches, for before/after comparisons."""
    return (
        list(island._holders),
        list(island._computing),
        list(island._neighbor_locks),
        {t: island.free_slots(t) for t in island._slots_by_type},
        island.busy_fraction(),
    )


class TestBadRelease:
    """A rejected release changes nothing (it used to half-apply)."""

    @pytest.mark.parametrize("sharing", [False, True])
    def test_wrong_owner(self, sharing):
        _, island, _ = make_island(spm_sharing=sharing)
        island.allocate(2, "owner")
        island.compute(2, invocations=1)
        before = slot_state(island)
        with pytest.raises(SimulationError, match="non-owner"):
            island.release(2, "intruder")
        assert slot_state(island) == before
        island.release(2, "owner")  # still releasable
        assert island.slot_usable(2)

    def test_release_before_compute(self):
        _, island, _ = make_island()
        island.allocate(2, "owner")
        before = slot_state(island)
        with pytest.raises(SimulationError, match="finished while reserved"):
            island.release(2, "owner")
        assert slot_state(island) == before

    def test_double_release(self):
        _, island, _ = make_island(spm_sharing=True)
        island.allocate(2, "owner")
        island.compute(2, invocations=1)
        island.release(2, "owner")
        before = slot_state(island)
        with pytest.raises(SimulationError, match="finished while idle"):
            island.release(2, "owner")
        assert slot_state(island) == before


class TestBadCompute:
    """Compute needs a held slot that is not computing yet, and a
    rejected compute changes nothing."""

    def test_compute_on_free_slot(self):
        _, island, _ = make_island()
        before = slot_state(island)
        with pytest.raises(SimulationError, match="started while idle"):
            island.compute(2, invocations=1)
        assert slot_state(island) == before

    def test_second_compute(self):
        _, island, _ = make_island()
        island.allocate(2, "owner")
        island.compute(2, invocations=1)
        before = slot_state(island)
        with pytest.raises(SimulationError, match="started while computing"):
            island.compute(2, invocations=1)
        assert slot_state(island) == before


#: Slot layout of INDEX_MIX (types sorted by name): div 0-1, poly 2-4,
#: sum 5, so neighbours of other types meet at 1/2 and 4/5.
INDEX_MIX = {"poly": 3, "div": 2, "sum": 1}

index_ops = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "start", "release", "fail"]),
        st.integers(0, 5),
    ),
    max_size=40,
)


class TestUsableSlotIndex:
    @settings(max_examples=150, deadline=None)
    @given(sharing=st.booleans(), ops=index_ops)
    def test_index_matches_predicate(self, sharing, ops):
        """After any allocate / compute / release / fail_slot
        sequence, free_slots(t) is exactly the slots slot_usable accepts."""
        _, island, _ = make_island(spm_sharing=sharing, abb_mix=dict(INDEX_MIX))
        owners = {}
        for op, slot in ops:
            held = island._holders[slot] is not None
            computing = island._computing[slot]
            if op == "allocate" and island.slot_usable(slot):
                owners[slot] = object()
                island.allocate(slot, owners[slot])
            elif op == "start" and held and not computing:
                island.compute(slot, invocations=1)
            elif op == "release" and computing:
                island.release(slot, owners.pop(slot))
            elif op == "fail" and not island._failed[slot]:
                island.fail_slot(slot)
            for type_name in INDEX_MIX:
                assert tuple(island.free_slots(type_name)) == tuple(
                    s for s in island.slots_of_type(type_name)
                    if island.slot_usable(s)
                )


class TestDataPath:
    def run_event(self, sim, event):
        done = []
        event.add_callback(lambda e: done.append(sim.now))
        sim.run()
        return done[0]

    def test_ingress_crosses_noc_dma_network(self):
        sim, island, energy = make_island()
        t = self.run_event(sim, island.ingress(0, 600))
        # noc_in: 600/6=100 +4 lat; dma: 600/32=18.75 +1; net: 600/32=18.75 +2
        assert t == pytest.approx(100 + 4 + 18.75 + 1 + 18.75 + 2)
        assert energy.dynamic_nj.get("spm", 0) > 0

    def test_egress_symmetric(self):
        sim, island, _ = make_island()
        t = self.run_event(sim, island.egress(0, 600))
        assert t == pytest.approx(100 + 4 + 18.75 + 1 + 18.75 + 2)

    def test_chain_local_avoids_noc(self):
        sim, island, _ = make_island()
        t_chain = self.run_event(sim, island.chain_local(0, 1, 600))
        sim2, island2, _ = make_island()
        t_ingress = self.run_event(sim2, island2.ingress(0, 600))
        assert t_chain < t_ingress

    def test_compute_uses_pipeline_model(self):
        sim, island, _ = make_island(spm_porting=SpmPorting.DOUBLE)
        island.allocate(0, "t")
        t = self.run_event(sim, island.compute(0, invocations=100))
        poly = island.slot_types[0]
        assert t == pytest.approx(poly.compute_cycles(100))

    def test_exact_porting_adds_conflict_penalty(self):
        simA, islandA, _ = make_island(spm_porting=SpmPorting.EXACT)
        islandA.allocate(0, "t")
        tA = self.run_event(simA, islandA.compute(0, 100))
        simB, islandB, _ = make_island(spm_porting=SpmPorting.DOUBLE)
        islandB.allocate(0, "t")
        tB = self.run_event(simB, islandB.compute(0, 100))
        assert tA == pytest.approx(tB * 1.02)

    def test_noc_interface_is_shared_bottleneck(self):
        sim, island, _ = make_island()
        done = []
        island.ingress(0, 600).add_callback(lambda e: done.append(sim.now))
        island.ingress(1, 600).add_callback(lambda e: done.append(sim.now))
        sim.run()
        # Second ingress queues behind the first on the 6 B/cy NoC link.
        assert done[1] - done[0] >= 99.0


class TestPhysicals:
    def test_area_breakdown_keys(self):
        _, island, _ = make_island()
        breakdown = island.area_breakdown_mm2()
        assert set(breakdown) == {
            "abbs",
            "spm",
            "abb_spm_crossbar",
            "spm_dma_network",
            "dma",
            "noc_interface",
        }
        assert all(v > 0 for v in breakdown.values())

    def test_total_area_is_sum(self):
        _, island, _ = make_island()
        assert island.area_mm2 == pytest.approx(
            sum(island.area_breakdown_mm2().values())
        )

    def test_sharing_triples_abb_spm_crossbar(self):
        _, private, _ = make_island(spm_sharing=False)
        _, shared, _ = make_island(spm_sharing=True)
        assert shared.area_breakdown_mm2()["abb_spm_crossbar"] == pytest.approx(
            3 * private.area_breakdown_mm2()["abb_spm_crossbar"]
        )

    def test_static_power_positive(self):
        _, island, _ = make_island()
        assert island.static_power_mw > 0

    def test_utilization_tracking(self):
        sim, island, _ = make_island()
        island.allocate(0, "t")
        sim._schedule(100.0, lambda: None)
        sim.run()
        assert island.average_abb_utilization(100.0) == pytest.approx(1 / 5)
        assert island.abb_tracker.peak_utilization == pytest.approx(1 / 5)
