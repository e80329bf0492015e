"""Sweep runner with result caching and Pareto filtering.

The :class:`Explorer` resolves every (design point, workload) pair
through three layers: an in-memory memo for the current session, an
optional persistent :class:`~repro.dse.cache.ResultCache` shared across
runs, and finally the simulator itself — serially or fanned out over a
process pool (``jobs > 1``) with deterministic, serial-identical row
order (see :mod:`repro.dse.parallel`).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.dse.cache import ResultCache
from repro.dse.parallel import run_points
from repro.dse.space import DesignSpace, design_points
from repro.errors import ConfigError
from repro.sim.results import SimResult
from repro.sim.run import DEFAULT_TILE_WINDOW
from repro.sim.system import SystemConfig
from repro.workloads.base import Workload


@dataclass(frozen=True)
class SweepRow:
    """One (design point, workload) observation."""

    config: SystemConfig
    workload: str
    result: SimResult


class Explorer:
    """Runs workloads across a design space, caching by design point.

    Attributes:
        rows: Every observation gathered so far, in sweep order.
        simulations_run: Count of simulations actually executed by this
            explorer (memo and persistent-cache hits excluded) — the
            number tests and benchmarks watch to verify cache reuse.
    """

    def __init__(
        self,
        workloads: typing.Sequence[Workload],
        cache: typing.Optional[ResultCache] = None,
        jobs: int = 1,
        tile_window: int = DEFAULT_TILE_WINDOW,
    ) -> None:
        if not workloads:
            raise ConfigError("explorer needs at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate workload names in sweep")
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.workloads = list(workloads)
        self.cache = cache
        self.jobs = jobs
        self.tile_window = tile_window
        self.rows: list[SweepRow] = []
        self.simulations_run = 0
        self._memo: dict[str, SimResult] = {}

    def _resolve(
        self, points: typing.Sequence[tuple[SystemConfig, Workload]], jobs: int
    ) -> list[SweepRow]:
        results, simulated = run_points(
            points,
            jobs=jobs,
            cache=self.cache,
            tile_window=self.tile_window,
            memo=self._memo,
        )
        self.simulations_run += simulated
        rows = [
            SweepRow(config, workload.name, result)
            for (config, workload), result in zip(points, results)
        ]
        self.rows.extend(rows)
        return rows

    def run_point(self, config: SystemConfig) -> list[SweepRow]:
        """Run every workload at one design point (cached)."""
        return self._resolve([(config, w) for w in self.workloads], jobs=1)

    def sweep(
        self, space: DesignSpace, jobs: typing.Optional[int] = None
    ) -> list[SweepRow]:
        """Run the whole space; returns all rows gathered.

        ``jobs`` overrides the explorer's worker count for this sweep.
        Row order (and every value in every row) is identical for any
        ``jobs`` value; parallelism only changes wall-clock time.
        """
        points = [
            (config, workload)
            for config in design_points(space)
            for workload in self.workloads
        ]
        self._resolve(points, jobs=self.jobs if jobs is None else jobs)
        return list(self.rows)

    # ------------------------------------------------------------ analysis
    def results_for(self, workload_name: str) -> list[SweepRow]:
        """All observations of one workload."""
        return [r for r in self.rows if r.workload == workload_name]

    def best_by(
        self,
        metric: typing.Callable[[SimResult], float],
        workload_name: typing.Optional[str] = None,
    ) -> SweepRow:
        """Row maximizing a metric (optionally for one workload)."""
        rows = (
            self.results_for(workload_name) if workload_name else list(self.rows)
        )
        if not rows:
            raise ConfigError("no sweep rows gathered yet")
        return max(rows, key=lambda r: metric(r.result))

    def pareto_front(
        self,
        metrics: typing.Sequence[typing.Callable[[SimResult], float]],
        workload_name: typing.Optional[str] = None,
    ) -> list[SweepRow]:
        """Rows not dominated on all the given maximize-metrics.

        The common two-metric case runs in O(n log n) via a sort-based
        sweep; other arities fall back to the generic all-pairs scan.
        Rows are returned in gathering order either way.
        """
        rows = (
            self.results_for(workload_name) if workload_name else list(self.rows)
        )
        values = [
            tuple(metric(row.result) for metric in metrics) for row in rows
        ]
        if len(metrics) == 2:
            keep = _pareto_indices_2d(values)
        else:
            keep = _pareto_indices_generic(values)
        return [row for i, row in enumerate(rows) if i in keep]


def _pareto_indices_2d(
    values: typing.Sequence[tuple[float, ...]],
) -> set[int]:
    """Non-dominated indices for exactly two maximize-metrics.

    Sort by the first metric descending; scanning in that order, a
    point is dominated iff some point with a strictly larger first
    metric has second metric >= its own, or a point tied on the first
    metric has a strictly larger second metric.  Ties on both metrics
    do not dominate each other, matching the all-pairs definition.
    """
    order = sorted(range(len(values)), key=lambda i: -values[i][0])
    keep: set[int] = set()
    best_y_above = float("-inf")  # max y among strictly-greater x
    position = 0
    while position < len(order):
        # Gather the group tied on x.
        group_end = position
        x = values[order[position]][0]
        group_max_y = float("-inf")
        while group_end < len(order) and values[order[group_end]][0] == x:
            group_max_y = max(group_max_y, values[order[group_end]][1])
            group_end += 1
        for rank in range(position, group_end):
            index = order[rank]
            y = values[index][1]
            if y == group_max_y and y > best_y_above:
                keep.add(index)
        best_y_above = max(best_y_above, group_max_y)
        position = group_end
    return keep


def _pareto_indices_generic(
    values: typing.Sequence[tuple[float, ...]],
) -> set[int]:
    """Non-dominated indices for any metric arity (all-pairs scan)."""
    keep: set[int] = set()
    for i, candidate in enumerate(values):
        dominated = any(
            all(o >= c for o, c in zip(other, candidate))
            and any(o > c for o, c in zip(other, candidate))
            for j, other in enumerate(values)
            if j != i
        )
        if not dominated:
            keep.add(i)
    return keep
