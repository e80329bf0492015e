"""Tests for multi-application consolidation and distribution strategies."""

import dataclasses

import pytest

from repro.abb import PAPER_ABB_MIX
from repro.errors import ConfigError
from repro.faults import parse_fault_spec
from repro.sim import SystemConfig, distribute_mix, run_workload
from repro.sim.run import run_consolidated
from repro.workloads import MEDICAL_NAMES, get_workload


class TestClusteredDistribution:
    def test_clustered_islands_are_type_concentrated(self):
        per_island = distribute_mix(PAPER_ABB_MIX, 24, strategy="clustered")
        # Conservation still holds.
        for type_name, count in PAPER_ABB_MIX.items():
            assert sum(m.get(type_name, 0) for m in per_island) == count
        # Most islands carry a single type (type-pure).
        pure = sum(1 for m in per_island if len(m) == 1)
        assert pure >= 20

    def test_clustered_sizes_balanced(self):
        per_island = distribute_mix(PAPER_ABB_MIX, 24, strategy="clustered")
        sizes = [sum(m.values()) for m in per_island]
        assert max(sizes) - min(sizes) <= 1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            distribute_mix(PAPER_ABB_MIX, 3, strategy="random")

    def test_system_config_carries_strategy(self):
        import dataclasses

        cfg = dataclasses.replace(SystemConfig(n_islands=24), distribution="clustered")
        result = run_workload(cfg, get_workload("Denoise", tiles=4))
        assert result.total_cycles > 0

    def test_uniform_beats_clustered_for_chained_workloads(self):
        """Uniform distribution keeps producer/consumer types co-located;
        clustering forces every chain hop across the NoC."""
        import dataclasses

        workload = get_workload("Segmentation", tiles=8)
        uniform = run_workload(SystemConfig(n_islands=24), workload)
        clustered = run_workload(
            dataclasses.replace(SystemConfig(n_islands=24), distribution="clustered"),
            workload,
        )
        assert uniform.performance > clustered.performance


class TestConsolidation:
    def test_runs_all_apps(self):
        result = run_consolidated(
            SystemConfig(n_islands=6),
            [get_workload("Denoise", tiles=4), get_workload("Deblur", tiles=4)],
        )
        assert result.tiles == 8
        assert "Denoise" in result.workload and "Deblur" in result.workload

    def test_empty_workloads_rejected(self):
        with pytest.raises(ConfigError):
            run_consolidated(SystemConfig(n_islands=3), [])

    def test_consolidation_beats_time_slicing(self):
        """Sharing one platform concurrently finishes sooner than running
        the applications back to back — the utilization argument for
        shared accelerator pools."""
        apps = [get_workload("Denoise", tiles=6), get_workload("EKF-SLAM", tiles=6)]
        cfg = SystemConfig(n_islands=6)
        shared = run_consolidated(cfg, apps)
        serial_cycles = sum(run_workload(cfg, app).total_cycles for app in apps)
        assert shared.total_cycles < serial_cycles

    def test_consolidated_utilization_higher(self):
        apps = [get_workload("Denoise", tiles=6), get_workload("Deblur", tiles=6)]
        cfg = SystemConfig(n_islands=6)
        shared = run_consolidated(cfg, apps)
        solo = run_workload(cfg, apps[0])
        assert shared.abb_utilization_avg > solo.abb_utilization_avg * 0.9

    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("n_islands", [1, 3, 6])
    @pytest.mark.parametrize("name", MEDICAL_NAMES)
    def test_single_app_is_run_workload(self, name, n_islands, faulted):
        """A closed-loop run is the one-application consolidated run."""
        config = SystemConfig(n_islands=n_islands)
        if faulted:
            config = dataclasses.replace(
                config,
                faults=parse_fault_spec("abb:0.25,dma:0.1,noc:0.2"),
                fault_seed=1,
            )
        workload = get_workload(name, tiles=4)
        assert run_consolidated(config, [workload]) == run_workload(
            config, workload
        )

    def test_deterministic(self):
        apps = [get_workload("Denoise", tiles=3), get_workload("Deblur", tiles=3)]
        cfg = SystemConfig(n_islands=3)
        assert (
            run_consolidated(cfg, apps).total_cycles
            == run_consolidated(cfg, apps).total_cycles
        )
