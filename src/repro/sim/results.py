"""Simulation results and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class SimResult:
    """Outcome of running one workload on one system configuration.

    Performance is reported as tiles per megacycle so that larger is
    better, matching the paper's normalized-performance figures.
    """

    workload: str
    config_label: str
    tiles: int
    total_cycles: float
    energy_nj: float
    area_mm2: float
    abb_utilization_avg: float = 0.0
    abb_utilization_peak: float = 0.0
    energy_breakdown_nj: dict[str, float] = field(default_factory=dict)
    noc_max_link_utilization: float = 0.0
    memory_bytes: float = 0.0
    # Degradation metrics (all zero on a fault-free run; see repro.faults).
    failed_abbs: int = 0
    dma_stalls: int = 0
    dma_retries: int = 0
    fallback_tasks: int = 0
    fallback_tiles: int = 0
    #: Critical-path bottleneck shares (category -> fraction of the
    #: makespan; see :mod:`repro.obs.critpath`).  Empty on untraced
    #: runs — attribution needs the span DAG a tracer collects.
    attribution: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.total_cycles <= 0:
            raise ConfigError("total cycles must be positive")
        if self.energy_nj <= 0:
            raise ConfigError("energy must be positive")
        if self.area_mm2 <= 0:
            raise ConfigError("area must be positive")

    # ------------------------------------------------------------- metrics
    @property
    def performance(self) -> float:
        """Throughput in tiles per megacycle (higher is better)."""
        return self.tiles / self.total_cycles * 1e6

    @property
    def cycles_per_tile(self) -> float:
        """Average cycles per tile."""
        return self.total_cycles / self.tiles

    @property
    def energy_per_tile_nj(self) -> float:
        """Average energy per tile, nJ."""
        return self.energy_nj / self.tiles

    @property
    def perf_per_energy(self) -> float:
        """Performance per unit energy (Figure 8's metric)."""
        return self.performance / self.energy_nj

    @property
    def perf_per_area(self) -> float:
        """Performance per unit area — compute density (Figure 9)."""
        return self.performance / self.area_mm2

    @property
    def degraded(self) -> bool:
        """Whether any injected fault manifested during this run."""
        return bool(
            self.failed_abbs
            or self.dma_stalls
            or self.dma_retries
            or self.fallback_tasks
        )

    def slowdown_vs(self, clean: "SimResult") -> float:
        """Degraded-vs-clean slowdown: this run's cycles over a clean
        run's cycles for the same workload (> 1 means slower)."""
        if clean.workload != self.workload:
            raise ConfigError(
                f"slowdown compares runs of one workload, got "
                f"{self.workload!r} vs {clean.workload!r}"
            )
        return self.total_cycles / clean.total_cycles

    def summary_row(self) -> dict[str, float]:
        """Flat dict for report tables."""
        return {
            "performance": self.performance,
            "cycles_per_tile": self.cycles_per_tile,
            "energy_per_tile_nj": self.energy_per_tile_nj,
            "perf_per_energy": self.perf_per_energy,
            "perf_per_area": self.perf_per_area,
            "area_mm2": self.area_mm2,
            "abb_util_avg": self.abb_utilization_avg,
            "abb_util_peak": self.abb_utilization_peak,
            "failed_abbs": float(self.failed_abbs),
            "fallback_tiles": float(self.fallback_tiles),
        }
