"""Tests for the parallel sweep runner and persistent-cache reuse."""

import pytest

from repro.dse import DesignSpace, Explorer, ResultCache
from repro.dse.parallel import run_points
from repro.errors import ConfigError
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.workloads import get_workload


def small_space():
    return DesignSpace(
        island_counts=(3, 6),
        networks=(
            SpmDmaNetworkConfig(kind=NetworkKind.PROXY_CROSSBAR),
            SpmDmaNetworkConfig(
                kind=NetworkKind.RING, link_width_bytes=32, rings=2
            ),
        ),
    )


def workloads():
    return [
        get_workload("Denoise", tiles=2),
        get_workload("EKF-SLAM", tiles=2),
    ]


class TestParallelSweep:
    def test_parallel_equals_serial_row_for_row(self):
        space = small_space()
        serial = Explorer(workloads())
        serial.sweep(space)
        parallel = Explorer(workloads(), jobs=4)
        parallel.sweep(space)
        assert len(serial.rows) == len(parallel.rows) == space.size() * 2
        for expected, actual in zip(serial.rows, parallel.rows):
            assert expected.config == actual.config
            assert expected.workload == actual.workload
            # Bit-identical results: SimResult equality is exact float
            # equality over every field, including nested breakdowns.
            assert expected.result == actual.result

    def test_second_sweep_served_entirely_from_cache(self, tmp_path):
        space = small_space()
        cold = Explorer(workloads(), cache=ResultCache(str(tmp_path)), jobs=4)
        cold.sweep(space)
        assert cold.simulations_run == space.size() * 2

        warm_cache = ResultCache(str(tmp_path))
        warm = Explorer(workloads(), cache=warm_cache, jobs=4)
        warm.sweep(space)
        assert warm.simulations_run == 0
        assert warm_cache.hits == space.size() * 2
        for expected, actual in zip(cold.rows, warm.rows):
            assert expected.result == actual.result

    def test_incremental_sweep_only_runs_new_points(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = Explorer(workloads(), cache=cache)
        first.sweep(DesignSpace(island_counts=(3,)))
        bigger = Explorer(workloads(), cache=ResultCache(str(tmp_path)))
        bigger.sweep(DesignSpace(island_counts=(3, 6)))
        # Only the 6-island points are new.
        assert bigger.simulations_run == 5 * 2

    def test_in_memory_memo_still_dedupes(self):
        explorer = Explorer(workloads())
        space = small_space()
        explorer.sweep(space)
        ran = explorer.simulations_run
        explorer.run_point(SystemConfigAt(space))
        assert explorer.simulations_run == ran

    def test_jobs_validation(self):
        with pytest.raises(ConfigError):
            Explorer(workloads(), jobs=0)
        with pytest.raises(ConfigError):
            run_points([], jobs=0)


class TestReferenceSweep:
    """The 12-point reference sweep: Denoise at 64 tiles over four island
    counts and three SPM<->DMA networks."""

    SPACE = DesignSpace(
        island_counts=(3, 6, 12, 24),
        networks=(
            SpmDmaNetworkConfig(kind=NetworkKind.PROXY_CROSSBAR),
            SpmDmaNetworkConfig(
                kind=NetworkKind.RING, link_width_bytes=32, rings=1
            ),
            SpmDmaNetworkConfig(
                kind=NetworkKind.RING, link_width_bytes=32, rings=2
            ),
        ),
    )

    def sweep(self, cache, jobs):
        explorer = Explorer(
            [get_workload("Denoise", tiles=64)], cache=cache, jobs=jobs
        )
        return explorer.sweep(self.SPACE), explorer

    def test_serial_parallel_and_warm_rows_equal(self, tmp_path):
        serial, _ = self.sweep(None, jobs=1)
        cold, _ = self.sweep(ResultCache(str(tmp_path)), jobs=4)
        warm, warm_explorer = self.sweep(ResultCache(str(tmp_path)), jobs=4)
        assert len(serial) == len(cold) == len(warm) == self.SPACE.size() == 12
        for a, b, c in zip(serial, cold, warm):
            assert a.result == b.result == c.result
        assert warm_explorer.simulations_run == 0


def SystemConfigAt(space):
    """First design point of a space (helper for memo test)."""
    from repro.dse import design_points

    return next(design_points(space))


class TestRunPoints:
    def test_duplicate_points_simulated_once(self):
        workload = get_workload("Denoise", tiles=2)
        from repro.sim.system import SystemConfig

        config = SystemConfig(n_islands=3)
        results, simulated = run_points([(config, workload)] * 3)
        assert simulated == 1
        assert results[0] == results[1] == results[2]

    def test_memo_prevents_resimulation(self):
        workload = get_workload("Denoise", tiles=2)
        from repro.sim.system import SystemConfig

        config = SystemConfig(n_islands=3)
        memo = {}
        _, first = run_points([(config, workload)], memo=memo)
        _, second = run_points([(config, workload)], memo=memo)
        assert first == 1
        assert second == 0

    def test_empty_points(self):
        results, simulated = run_points([])
        assert results == [] and simulated == 0
