#!/usr/bin/env python
"""Observability overhead benchmark: traced vs untraced wall-clock.

Runs the reference medical-imaging suite (the four paper workloads on
the 3-island platform, crossbar and ring SPM<->DMA networks) once
untraced and once with a live :class:`Tracer` threaded through the
scheduler, island, NoC, and memory layers, taking the best of
``REPEATS`` wall-clock measurements per leg.  Asserts the two legs
produce bit-identical results (the subsystem's zero-cost-when-disabled
contract is really "bit-neutral always, cheap when enabled"), exercises
the full export path once (Perfetto document + attribution report), and
requires the traced-run slowdown to stay under ``OVERHEAD_BUDGET``.

Writes ``BENCH_obs.json`` at the repo root so future PRs can track the
instrumentation cost alongside simulator throughput.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

from repro.engine.trace import Tracer
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.obs import analyze_critical_path, trace_document, validate_events
from repro.sim import SystemConfig, run_workload
from repro.workloads import MEDICAL_NAMES, get_workload

#: Maximum tolerated traced/untraced wall-clock ratio minus one.
OVERHEAD_BUDGET = 0.15

#: Best-of-N to shrug off scheduler noise.
REPEATS = 5

#: Reference platforms: both SPM<->DMA network topologies.
NETWORKS = {
    "xbar": SpmDmaNetworkConfig(),
    "ring": SpmDmaNetworkConfig(NetworkKind.RING, 32, 2),
}

#: Output artifact, at the repository root.
ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_obs.json",
)


def suite_cells():
    """The reference (key, config, workload-name) cells."""
    cells = []
    for net_name, network in sorted(NETWORKS.items()):
        config = SystemConfig(n_islands=3, network=network)
        for name in MEDICAL_NAMES:
            cells.append(((name, net_name), config, name))
    return cells


def timed_run(config, name, tracer):
    """Run one cell; returns (result, wall seconds)."""
    start = time.perf_counter()
    result = run_workload(config, get_workload(name, tiles=4), tracer=tracer)
    return result, time.perf_counter() - start


def measure(repeats):
    """Per-cell best-of wall clock for the untraced and traced legs.

    The two legs of a cell run back-to-back inside every repeat, and the
    suite totals are sums of per-cell minima — both choices keep slow
    background drift (CPU frequency, other processes) from landing on
    one leg only and masquerading as tracing overhead.
    """
    cells = suite_cells()
    untraced_best = {key: float("inf") for key, _, _ in cells}
    traced_best = dict(untraced_best)
    untraced = {}
    traced = {}
    for _ in range(repeats):
        for key, config, name in cells:
            untraced[key], elapsed = timed_run(config, name, None)
            untraced_best[key] = min(untraced_best[key], elapsed)
            traced[key], elapsed = timed_run(config, name, Tracer())
            traced_best[key] = min(traced_best[key], elapsed)
    return (
        untraced,
        traced,
        sum(untraced_best.values()),
        sum(traced_best.values()),
    )


#: Wall-clock asserts on shared runners are noisy; re-measure a bounded
#: number of times before declaring the budget blown.  A genuine
#: regression fails every attempt.
MAX_ATTEMPTS = 3


def main() -> int:
    for attempt in range(MAX_ATTEMPTS):
        untraced, traced, untraced_s, traced_s = measure(REPEATS)
        if traced_s / untraced_s - 1.0 < OVERHEAD_BUDGET:
            break
        print(
            f"attempt {attempt + 1}: overhead "
            f"{traced_s / untraced_s - 1.0:.1%}, re-measuring"
        )

    for key, base in untraced.items():
        got = replace(traced[key], attribution={})
        assert got == base, f"traced run diverged on {key}"

    # One full export leg, timed separately: span DAG -> Perfetto
    # document (validated) + critical-path attribution.
    tracer = Tracer()
    config = SystemConfig(n_islands=3)
    result = run_workload(
        config, get_workload("Denoise", tiles=4), tracer=tracer
    )
    start = time.perf_counter()
    document = trace_document(tracer, note="bench")
    validate_events(document["traceEvents"])
    report = analyze_critical_path(tracer, makespan=result.total_cycles)
    export_s = time.perf_counter() - start
    assert sum(report.shares().values()) > 0.999

    overhead = traced_s / untraced_s - 1.0
    assert overhead < OVERHEAD_BUDGET, (
        f"tracing overhead {overhead:.1%} exceeds {OVERHEAD_BUDGET:.0%} budget"
    )

    report_json = {
        "workloads": list(MEDICAL_NAMES),
        "networks": sorted(NETWORKS),
        "repeats": REPEATS,
        "untraced_wall_s": round(untraced_s, 4),
        "traced_wall_s": round(traced_s, 4),
        "overhead_fraction": round(overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
        "export_wall_s": round(export_s, 4),
        "denoise_spans": len(tracer),
        "bit_neutral": True,
        "note": (
            "overhead_fraction is best-of-N traced wall / untraced wall - 1 "
            "over the 4-workload x 2-network reference suite; export_wall_s "
            "is one Perfetto document build + validation + critical-path "
            "attribution on traced Denoise"
        ),
    }
    with open(ARTIFACT, "w") as handle:
        json.dump(report_json, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report_json, indent=2, sort_keys=True))
    print(f"\nwrote {ARTIFACT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
