"""Tests for system assembly, distribution and data paths."""

import pytest

from repro.abb import PAPER_ABB_MIX
from repro.errors import ConfigError
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.sim import SystemConfig, SystemModel, distribute_mix


class TestDistributeMix:
    @pytest.mark.parametrize("n_islands", [3, 6, 12, 24])
    def test_paper_mix_distributes_evenly(self, n_islands):
        per_island = distribute_mix(PAPER_ABB_MIX, n_islands)
        assert len(per_island) == n_islands
        # Totals preserved per type.
        for type_name, count in PAPER_ABB_MIX.items():
            assert sum(m.get(type_name, 0) for m in per_island) == count
        # Uniform: island sizes differ by at most a few ABBs.
        sizes = [sum(m.values()) for m in per_island]
        assert max(sizes) - min(sizes) <= len(PAPER_ABB_MIX)

    def test_three_islands_have_40_abbs_each(self):
        per_island = distribute_mix(PAPER_ABB_MIX, 3)
        assert [sum(m.values()) for m in per_island] == [40, 40, 40]

    def test_24_islands_have_5_abbs_each(self):
        per_island = distribute_mix(PAPER_ABB_MIX, 24)
        assert all(sum(m.values()) == 5 for m in per_island)

    def test_empty_island_rejected(self):
        with pytest.raises(ConfigError):
            distribute_mix({"poly": 2}, 5)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            distribute_mix({"poly": -1}, 1)


class TestSystemConfig:
    def test_defaults_match_paper(self):
        cfg = SystemConfig()
        assert sum(cfg.abb_mix.values()) == 120
        assert cfg.n_memory_controllers == 4
        assert cfg.mc_bandwidth_gbps == 10.0
        assert cfg.mc_latency_cycles == 180.0

    def test_with_helpers(self):
        cfg = SystemConfig()
        ring = SpmDmaNetworkConfig(NetworkKind.RING, 32, 2)
        assert cfg.with_islands(24).n_islands == 24
        assert cfg.with_network(ring).network.rings == 2
        # Original untouched (frozen).
        assert cfg.n_islands == 3

    def test_label(self):
        cfg = SystemConfig(n_islands=24, network=SpmDmaNetworkConfig(NetworkKind.RING, 32, 2))
        assert cfg.label() == "24 Islands / 2-Ring, 32-Byte"

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_islands=0)
        with pytest.raises(ConfigError):
            SystemConfig(n_islands=200)  # fewer ABBs than islands

    @pytest.mark.parametrize(
        "field",
        ["mc_bandwidth_gbps", "mc_latency_cycles", "noc_link_bytes_per_cycle",
         "mesh_link_bytes_per_cycle"],
    )
    def test_nan_channel_parameter_rejected_at_build(self, field):
        """A NaN rate or latency fails when the system is built, not
        mid-run when a completion time cannot be scheduled."""
        with pytest.raises(ConfigError):
            SystemModel(SystemConfig(**{field: float("nan")}))

    @pytest.mark.parametrize("power", [float("nan"), float("inf")])
    def test_non_finite_static_power_rejected_at_build(self, power):
        """Regression: a NaN platform power passed the `< 0` check and
        the run reported energy_nj=nan."""
        with pytest.raises(ConfigError, match="power must be finite"):
            SystemModel(SystemConfig(platform_static_mw=power))


class TestSystemModel:
    def test_builds_all_islands(self):
        system = SystemModel(SystemConfig(n_islands=6))
        assert len(system.islands) == 6
        assert sum(i.n_slots for i in system.islands) == 120

    def test_data_paths_complete(self):
        system = SystemModel(SystemConfig(n_islands=3))
        done = []
        system.memory_to_island(0, 0, 640, stream_id=0).add_callback(
            lambda e: done.append(("in", system.sim.now))
        )
        system.sim.run()
        system.island_to_memory(0, 0, 640, stream_id=1).add_callback(
            lambda e: done.append(("out", system.sim.now))
        )
        system.sim.run()
        assert [tag for tag, _ in done] == ["in", "out"]
        # Memory path must include the 180-cycle controller latency.
        assert done[0][1] > 180

    def test_island_to_island_same_island_is_local_chain(self):
        system = SystemModel(SystemConfig(n_islands=3))
        before = system.noc.total_transfers
        done = []
        system.island_to_island(0, 0, 0, 1, 640).add_callback(
            lambda e: done.append(system.sim.now)
        )
        system.sim.run()
        assert done
        assert system.noc.total_transfers == before  # no mesh crossing

    def test_cross_island_chain_uses_noc(self):
        system = SystemModel(SystemConfig(n_islands=3))
        before = system.noc.total_transfers
        system.island_to_island(0, 0, 1, 0, 640)
        system.sim.run()
        assert system.noc.total_transfers > before

    def test_area_scales_with_network_choice(self):
        crossbar = SystemModel(SystemConfig(n_islands=3))
        ring = SystemModel(
            SystemConfig(
                n_islands=3,
                network=SpmDmaNetworkConfig(NetworkKind.RING, 32, 1),
            )
        )
        assert crossbar.accelerator_area_mm2 > ring.accelerator_area_mm2

    def test_area_breakdown_keys(self):
        system = SystemModel(SystemConfig(n_islands=3))
        breakdown = system.area_breakdown_mm2()
        assert "spm_dma_network" in breakdown
        assert breakdown["abbs"] > 0

    def test_platform_static_power_registered(self):
        system = SystemModel(SystemConfig(n_islands=3))
        assert system.energy.static_power_mw > SystemConfig().platform_static_mw
