"""The benchmark's three workloads, built only from the public API of ``repro``.

A workload is a list of *units*, one simulation each (a design point or
a serving session).  One pass runs every unit once.  Each workload also
knows how to check a unit's output, how to digest it into the exact
numbers a reproduction depends on, and how much simulated work it did.

Every workload runs in this process with no pool (``jobs=1``): a pool on
a small shared host measures the operating system's scheduler.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing

import repro
import repro.obs
from repro.arch.presets import PAPER_NETWORKS
from repro.dse import run_points
from repro.engine.trace import Tracer
from repro.serve import (
    AdmissionConfig,
    ArrivalConfig,
    ServeConfig,
    estimate_saturation,
    make_tenants,
    run_serve,
)
from repro.workloads.suite import PAPER_BENCHMARKS

ISLAND_COUNTS = (3, 6, 12, 24)
TILES = 16

#: Offered load of ``serve-bursty`` is anchored to this fixed saturation
#: rate (requests per Mcycle), the value ``estimate_saturation`` returned
#: for the serve platform when the benchmark was defined.  It is fixed so
#: that the offered load does not follow the code under test.
SERVE_SATURATION = 914.12
SERVE_LOADS = (0.8, 1.2)
SERVE_POLICIES = ("always_hw", "wait_threshold", "shed")
SERVE_TENANTS = 4
SERVE_DURATION = 1_000_000.0
SERVE_ABB_MIX = {"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1}

FAULT_SPEC = "abb:0.25,dma:0.1,noc:0.2"
FAULT_NETWORKS = ("Crossbar", "2-Ring, 32-Byte")
#: Every RECHECK_EVERY-th ``fault-obs`` point is re-run untraced and must
#: give the identical result (attribution aside).
RECHECK_EVERY = 8


class Unit(typing.NamedTuple):
    """One simulation of a workload: a label and the call that runs it."""

    label: str
    run: typing.Callable[[], typing.Any]


def result_problems(result: repro.SimResult, tiles: int) -> list:
    """Invariant violations of one closed-loop result (empty when sound)."""
    problems = []
    if result.tiles != tiles:
        problems.append(f"{result.tiles}/{tiles} tiles completed")
    for name in ("total_cycles", "energy_nj"):
        value = getattr(result, name)
        if not (math.isfinite(value) and value >= 0):
            problems.append(f"{name} is {value!r}")
    return problems


def serve_problems(result) -> list:
    """Invariant violations of one serving session (empty when sound)."""
    problems = []
    for tenant in result.tenants:
        if tenant.completed != tenant.offered - tenant.shed:
            problems.append(
                f"tenant {tenant.tenant}: completed {tenant.completed} != "
                f"offered {tenant.offered} - shed {tenant.shed}"
            )
    if result.completed != result.offered - result.shed:
        problems.append("session completed != offered - shed")
    for name in ("drained_cycles", "energy_nj"):
        value = getattr(result, name)
        if not (math.isfinite(value) and value >= 0):
            problems.append(f"{name} is {value!r}")
    return problems


def result_record(result: repro.SimResult) -> tuple:
    """The exact simulated numbers of a closed-loop result."""
    return (
        result.workload,
        result.config_label,
        result.tiles,
        repr(result.total_cycles),
        repr(result.energy_nj),
        repr(result.memory_bytes),
        result.failed_abbs,
        result.dma_stalls,
        result.dma_retries,
        result.fallback_tasks,
        result.fallback_tiles,
    )


def serve_record(result) -> tuple:
    """The exact simulated numbers of a serving session."""
    return (
        result.policy,
        repr(result.drained_cycles),
        repr(result.energy_nj),
        repr(result.latency_p50),
        repr(result.latency_p99),
        repr(result.latency_max),
        tuple(
            (
                t.tenant,
                t.offered,
                t.completed,
                t.hw_completed,
                t.sw_fallbacks,
                t.shed,
                repr(t.latency_p50),
                repr(t.latency_p99),
            )
            for t in result.tenants
        ),
    )


def digest(records: typing.Iterable[tuple]) -> str:
    """Short SHA-256 digest of a sequence of result records."""
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()[:16]


class Scenario:
    """Base for the three workloads; subclasses fill in the units."""

    name = ""
    #: Nominal calibrated seconds of one untraced pass, used to turn
    #: ``--seconds`` into a fixed number of passes.
    nominal_pass_s = 1.0

    #: Whether every pass runs the same units, so their digests must agree.
    passes_identical = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def units(self, pass_index: int) -> list:
        """The simulations of one pass, in order."""
        raise NotImplementedError

    def setup_info(self) -> str:
        """Information measured during set-up, printed but not a metric."""
        return ""

    def warm_up(self) -> None:
        """One untimed simulation, part of set-up."""
        self.units(0)[0].run()

    def problems(self, result) -> list:
        """Invariant violations of one unit's output."""
        return result_problems(result, self.tiles)

    def recheck(self, index: int, label: str, result) -> list:
        """Extra, untimed verification of unit ``index`` of a pass."""
        return []

    def record(self, result) -> tuple:
        return result_record(result)

    def simulated_cycles(self, result) -> float:
        return result.total_cycles

    def work_items(self, result) -> int:
        """Simulated work of one unit: tiles, or requests offered."""
        return result.tiles


class PaperSweep(Scenario):
    """The paper's 7 benchmarks x island counts x the 5 SPM-DMA networks."""

    name = "paper-sweep"
    nominal_pass_s = 3.3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        # The sweep has no randomness: the seed is recorded but unused.
        self.tiles = 2 if tiny else TILES
        names = list(PAPER_BENCHMARKS)[:2] if tiny else list(PAPER_BENCHMARKS)
        islands = ISLAND_COUNTS[:1] if tiny else ISLAND_COUNTS
        networks = list(PAPER_NETWORKS)[:2] if tiny else list(PAPER_NETWORKS)
        self.points = [
            (
                repro.SystemConfig(
                    n_islands=n, network=PAPER_NETWORKS[network]
                ),
                repro.get_workload(name, tiles=self.tiles),
            )
            for name in names
            for n in islands
            for network in networks
        ]

    def units(self, pass_index: int) -> list:
        return [
            Unit(
                f"{workload.name}/{config.label()}",
                lambda point=(config, workload): run_points(
                    [point], jobs=1, cache=None
                )[0][0],
            )
            for config, workload in self.points
        ]


class ServeBursty(Scenario):
    """Bursty open-loop serving on one island under three policies."""

    name = "serve-bursty"
    nominal_pass_s = 3.6
    passes_identical = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.config = repro.SystemConfig(n_islands=1, abb_mix=SERVE_ABB_MIX)
        self.workload = repro.synthetic_workload(
            name="rpc", depth=2, width=2, invocations=32, tiles=16
        )
        self.duration = 100_000.0 if tiny else SERVE_DURATION
        self.sessions = [
            (load, policy)
            for load in SERVE_LOADS
            for policy in (SERVE_POLICIES[:1] if tiny else SERVE_POLICIES)
        ]

    def setup_info(self) -> str:
        saturation = estimate_saturation(
            self.config, [self.workload] * SERVE_TENANTS
        )
        return (
            f"measured saturation {saturation:.2f} req/Mcycle (offered load "
            f"anchored to the fixed {SERVE_SATURATION})"
        )

    def serve_seed(self, pass_index: int, session: int) -> int:
        # Every session of a run draws its own arrivals, so a run averages
        # over many independent bursts instead of one.
        return self.seed * 1000 + pass_index * len(self.sessions) + session

    def warm_up(self) -> None:
        # A short session with a fixed seed, so set-up does not vary with
        # the size of the first seeded session.
        run_serve(self.config, self.session(0.8, "always_hw", 100_000.0, 0))

    def session(
        self, load: float, policy: str, duration: float, seed: int
    ) -> ServeConfig:
        arrival = ArrivalConfig(
            kind="onoff",
            rate_per_mcycle=load * SERVE_SATURATION / SERVE_TENANTS,
            mean_on_cycles=150_000,
            mean_off_cycles=150_000,
        )
        return ServeConfig(
            tenants=make_tenants(SERVE_TENANTS, [self.workload], arrival),
            admission=AdmissionConfig(policy=policy),
            duration_cycles=duration,
            seed=seed,
        )

    def units(self, pass_index: int) -> list:
        units = []
        for session, (load, policy) in enumerate(self.sessions):
            serve = self.session(
                load,
                policy,
                self.duration,
                self.serve_seed(pass_index, session),
            )
            units.append(
                Unit(
                    f"{load}x/{policy}",
                    lambda serve=serve: run_serve(self.config, serve),
                )
            )
        return units

    def problems(self, result) -> list:
        return serve_problems(result)

    def record(self, result) -> tuple:
        return serve_record(result)

    def simulated_cycles(self, result) -> float:
        return result.drained_cycles

    def work_items(self, result) -> int:
        return result.offered


class FaultObs(Scenario):
    """Faulted, traced runs with attribution and Perfetto export."""

    name = "fault-obs"
    nominal_pass_s = 5.3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.tiles = 2 if tiny else TILES
        faults = repro.parse_fault_spec(FAULT_SPEC)
        names = list(PAPER_BENCHMARKS)[:1] if tiny else list(PAPER_BENCHMARKS)
        islands = ISLAND_COUNTS[:1] if tiny else ISLAND_COUNTS
        self.points = [
            (
                repro.SystemConfig(
                    n_islands=n,
                    network=PAPER_NETWORKS[network],
                    faults=faults,
                    fault_seed=fault_seed,
                ),
                repro.get_workload(name, tiles=self.tiles),
            )
            for name in names
            for n in islands
            for network in FAULT_NETWORKS
            for fault_seed in (2 * seed, 2 * seed + 1)
        ]

    @staticmethod
    def traced_run(config, workload) -> repro.SimResult:
        """Traced run (attribution included), then export and validate."""
        tracer = Tracer()
        result = repro.run_workload(config, workload, tracer=tracer)
        document = repro.obs.trace_document(tracer)
        repro.obs.validate_events(document["traceEvents"])
        return result

    def units(self, pass_index: int) -> list:
        return [
            Unit(
                f"{workload.name}/{config.label()}/f{config.fault_seed}",
                lambda point=(config, workload): self.traced_run(*point),
            )
            for config, workload in self.points
        ]

    def recheck(self, index: int, label: str, result) -> list:
        if index % RECHECK_EVERY:
            return []
        config, workload = self.points[index]
        untraced = repro.run_workload(config, workload)
        if dataclasses.replace(result, attribution={}) != untraced:
            return [f"{label}: traced and untraced results differ"]
        return []


SCENARIOS = {cls.name: cls for cls in (PaperSweep, ServeBursty, FaultObs)}
