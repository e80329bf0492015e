#!/usr/bin/env python3
"""The simulator's benchmark: three workloads, end-to-end and per layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fault-obs --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

``--trace 0`` runs untraced passes and reports the end-to-end metrics;
``--trace 1`` runs one untraced pass and two profiled passes and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``perfbench/README.md`` defines every metric.

Host times are in *calibrated seconds*: measured seconds scaled by the
ratio of a fixed pure-Python yardstick loop's time, taken just before and
after each simulation, to its reference time.  Raw seconds are printed
beside each timing as information.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import typing
from heapq import heappop, heappush

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Items the yardstick loop pushes through a heap and pops again, and its
#: median time on the host the benchmark was defined on (2 shared CPUs,
#: Python 3.11).
YARDSTICK_ITEMS = 2_000
YARDSTICK_REFERENCE_S = 2.94e-3

#: Setup is measured this many times per run (this process plus fresh
#: child processes) and reported as the median.
SETUP_SAMPLES = 5

#: Run-time samples needed before a tail percentile is reported.
TAIL_MIN_SAMPLES = 20

DEFAULT_SEED = 1
#: Digests of the first pass's simulated results at ``DEFAULT_SEED``.
RECORDED_DIGESTS = {
    "paper-sweep": "5f748cb1bfa38e20",
    "serve-bursty": "78220aaebb0d6767",
    "fault-obs": "ac41b46defeafae7",
}

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _Token:
    __slots__ = ("key",)


def yardstick() -> float:
    """Seconds taken by a fixed pure-Python loop: the host-speed probe.

    The loop allocates small objects and moves them through a heap and a
    dict, the kind of work the simulator's event loop does, with no
    ``repro`` code in it.  It follows the simulator's speed across
    processes more closely than a loop of plain arithmetic does.
    """
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(YARDSTICK_ITEMS):
        heappush(heap, ((i * 7919) % YARDSTICK_ITEMS, i, _Token()))
    while heap:
        key, i, token = heappop(heap)
        token.key = key
        table[i & 511] = token
    return time.perf_counter() - start


class Pass(typing.NamedTuple):
    """Timings and outputs of one pass over a workload's units."""

    labels: list
    raw_s: list  # measured seconds per unit
    factors: list  # reference yardstick time / yardstick time around each unit
    results: list  # unit outputs; None where the unit raised
    errors: dict  # unit index -> error text

    @property
    def calibrated_s(self) -> list:
        return [raw * f for raw, f in zip(self.raw_s, self.factors)]


def run_pass(scenario, pass_index: int, probe=yardstick) -> Pass:
    """Run every unit of one pass, timing each between two yardsticks."""
    units = scenario.units(pass_index)
    record = Pass([u.label for u in units], [], [], [], {})
    before = probe()
    for index, unit in enumerate(units):
        start = time.perf_counter()
        try:
            result = unit.run()
        except Exception as exc:  # a failed simulation is counted, not fatal
            result = None
            record.errors[index] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        after = probe()
        record.raw_s.append(elapsed)
        record.factors.append(YARDSTICK_REFERENCE_S * 2 / (before + after))
        record.results.append(result)
        before = after
    return record


def failed_units(scenario, run: Pass, recheck: bool = True) -> dict:
    """Unit index -> problems, for every unit that raised or failed its
    output check (untimed)."""
    failed = {}
    for index, result in enumerate(run.results):
        if result is None:
            failed[index] = [run.errors[index]]
            continue
        problems = scenario.problems(result)
        if recheck:
            problems += scenario.recheck(index, run.labels[index], result)
        if problems:
            failed[index] = problems
    return failed


def pass_digest(scenario, run: Pass) -> str:
    from scenarios import digest

    return digest(scenario.record(r) for r in run.results if r is not None)


# ------------------------------------------------------------------ statistics
def tail(samples: typing.Sequence[float]) -> typing.Optional[tuple]:
    """``(percentile, value)`` of the tail, or None below 20 samples.

    p90 from 100 samples up; below that, the highest whole percentile
    with at least 10 samples beyond it (nearest-rank definition).
    """
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    pct = 90 if n >= 100 else (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return pct, sorted(samples)[rank - 1]


def failed_frac(failed: int, attempted: int) -> float:
    return failed / attempted


# ----------------------------------------------------------------------- setup
def setup(workload: str, seed: int, tiny: bool = False):
    """Import ``repro``, build the workload's inputs and run one untimed
    warm-up simulation.  Returns ``(scenario, raw_s, calibrated_s)``."""
    before = yardstick()
    start = time.perf_counter()
    import scenarios  # imports repro

    scenario = scenarios.SCENARIOS[workload](seed, tiny=tiny)
    info = scenario.setup_info()
    scenario.warm_up()
    elapsed = time.perf_counter() - start
    factor = YARDSTICK_REFERENCE_S * 2 / (before + yardstick())
    if info:
        print(f"info: {info}")
    return scenario, elapsed, elapsed * factor


def setup_in_child(workload: str, seed: int) -> tuple:
    """One setup sample from a fresh interpreter: ``(raw_s, calibrated_s)``."""
    out = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--setup-only",
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    return sample["raw_s"], sample["calibrated_s"]


# ------------------------------------------------------------------ reporting
class Report:
    """Metrics of one run, printed by name with unit (and raw seconds)."""

    def __init__(self) -> None:
        self.metrics: dict = {}

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:14.6g} {unit:10s} {note}".rstrip())

    def check_names(self) -> list:
        """Metric names outside ``[A-Za-z0-9_.-]+`` or without a unit."""
        return [
            name
            for name, metric in self.metrics.items()
            if not METRIC_NAME.fullmatch(name) or not metric["unit"]
        ]


def end_to_end(scenario, seconds: int, tiny: bool, report: Report):
    """Untraced passes; returns ``(correct, attempted, failed)``."""
    passes = max(1, round(seconds / scenario.nominal_pass_s))
    if not tiny:
        per_pass = len(scenario.units(0))
        passes = max(passes, math.ceil(TAIL_MIN_SAMPLES / per_pass))
    runs = [run_pass(scenario, p) for p in range(passes)]

    attempted = sum(len(r.results) for r in runs)
    failed = sum(len(failed_units(scenario, r)) for r in runs)
    correct = check_digests(scenario, runs, tiny) and not failed

    raw = [t for r in runs for t in r.raw_s]
    cal = [t for r in runs for t in r.calibrated_s]
    wall_raw = sum(raw) / passes
    wall_cal = sum(cal) / passes
    mcycles = sum(
        scenario.simulated_cycles(x) for r in runs for x in r.results if x
    ) / 1e6
    report.add(
        "wall_s", wall_cal, "s",
        f"raw {wall_raw:.4f} s; mean of {passes} passes",
    )
    report.add(
        "sim_mcycles_per_s", mcycles / sum(cal), "Mcycles/s",
        f"raw {mcycles / sum(raw):.4g}; {mcycles:.4g} Mcycles simulated",
    )
    report.add(
        "run_p50_ms", statistics.median(cal) * 1e3, "ms",
        f"raw {statistics.median(raw) * 1e3:.4f} ms; n={len(cal)}",
    )
    cal_tail, raw_tail = tail(cal), tail(raw)
    if cal_tail is not None:
        report.add(
            "run_tail_ms", cal_tail[1] * 1e3, "ms",
            f"p{cal_tail[0]}; raw {raw_tail[1] * 1e3:.4f} ms; n={len(cal)}",
        )
    print(
        f"  {'failed_frac':32s} {failed_frac(failed, attempted):14.6g} "
        f"{'ratio':10s} {failed}/{attempted} simulations"
    )
    return correct, attempted, failed


def check_digests(scenario, runs: list, tiny: bool) -> bool:
    """Every identical pass gives the same results, and the first pass
    matches the recorded digest at the default seed."""
    digests = [pass_digest(scenario, r) for r in runs]
    ok = True
    if scenario.passes_identical and len(set(digests)) > 1:
        print(f"error: passes disagree: {digests}")
        ok = False
    expected = RECORDED_DIGESTS[scenario.name]
    if scenario.seed == DEFAULT_SEED and not tiny:
        if digests[0] != expected:
            print(
                f"error: digest {digests[0]} != recorded {expected} "
                f"at seed {DEFAULT_SEED}"
            )
            ok = False
        else:
            print(f"info: digest {digests[0]} matches the recorded digest")
    else:
        print(f"info: digest {digests[0]} (recorded only for the default seed)")
    return ok


def per_layer(scenario, tiny: bool, report: Report):
    """One untraced and two profiled passes; returns
    ``(correct, attempted, failed)``."""
    import layers
    from repro.obs import system_metrics

    baseline = run_pass(scenario, 0)
    failed = len(failed_units(scenario, baseline))
    correct = check_digests(scenario, [baseline], tiny) and not failed
    expected = pass_digest(scenario, baseline)

    profiles = []
    for _ in range(2):
        gc.collect()
        spans = layers.Spans()
        with spans.installed():
            run, stats = layers.profiled(
                lambda pause: (
                    run_pass(scenario, 0, lambda: pause(yardstick)),
                    gc.collect(),
                )[0]
            )
        work = sum(scenario.work_items(r) for r in run.results if r)
        sim_work = {"core.abc_grants": 0.0, "core.abc_queued": 0.0,
                    "noc.mesh_transfers": 0.0}
        for system in spans.systems:
            registry = system_metrics(system, system.sim.now)
            for name, source in (
                ("core.abc_grants", "abc.alloc.grants"),
                ("core.abc_queued", "abc.alloc.queued"),
                ("noc.mesh_transfers", "mesh.transfers"),
            ):
                sim_work[name] += registry.get(source).values()["value"]
        failed += len(failed_units(scenario, run, recheck=False))
        if pass_digest(scenario, run) != expected:
            print("error: a profiled pass changed the simulated results")
            correct = False
        profiles.append(
            (run, layers.attribute(stats), dict(spans.seconds), sim_work, work)
        )
        del spans, stats, run
    attempted = len(baseline.results) + sum(len(p[0].results) for p in profiles)

    exact = [exact_counts(p) for p in profiles]
    if exact[0] != exact[1]:
        diff = sorted(k for k in exact[0] if exact[0][k] != exact[1].get(k))
        print(f"error: exact counts differ between profiled passes: {diff}")
        correct = False
    else:
        print(f"info: {len(exact[0])} exact counts identical in both passes")

    def mean(values):
        return sum(values) / len(values)

    factor = mean([mean(p[0].factors) for p in profiles])
    self_s = {
        layer: mean([p[1].self_s[layer] for p in profiles]) * factor
        for layer in layers.LAYERS
    }
    total = sum(self_s.values())
    counts = exact[0]
    for layer in layers.LAYERS:
        report.add(f"{layer}.share", self_s[layer] / total, "ratio")
        report.add(f"{layer}.self_s", self_s[layer], "s")
        report.add(
            f"{layer}.calls_per_tile", counts[f"{layer}.calls_per_tile"],
            "calls/tile",
        )
    for name in layers.COUNTED_FUNCTIONS:
        report.add(f"{name}_per_tile", counts[f"{name}_per_tile"], "calls/tile")
    for span in ("stage.build", "stage.simulate", "stage.attribute",
                 "stage.export", "core.release", "core.request",
                 "serve.decide"):
        report.add(
            f"{span}_s", mean([p[2].get(span, 0.0) for p in profiles]) * factor,
            "s",
        )
    for name in ("core.abc_grants", "core.abc_queued", "noc.mesh_transfers"):
        report.add(name, counts[name], "count")
    for name, layer, work_name in (
        ("core.self_us_per_grant", "core", "core.abc_grants"),
        ("noc.self_us_per_transfer", "noc", "noc.mesh_transfers"),
    ):
        units = counts[work_name]
        report.add(
            name, self_s[layer] * 1e6 / units if units else 0.0, "us",
        )
    profiled_wall = mean([sum(p[0].calibrated_s) for p in profiles])
    report.add(
        "bench.profile_overhead",
        profiled_wall / sum(baseline.calibrated_s),
        "ratio",
        f"profiled {profiled_wall:.4f} s / untraced "
        f"{sum(baseline.calibrated_s):.4f} s",
    )
    return correct, attempted, failed


def exact_counts(profile: tuple) -> dict:
    """The counts of one profiled pass that must repeat exactly."""
    _run, layer_profile, _spans, sim_work, work = profile
    counts = {"work": work, **sim_work}
    for layer in layer_profile.calls:
        counts[f"{layer}.calls_per_tile"] = layer_profile.calls[layer] / work
    for name, calls in layer_profile.counted.items():
        counts[f"{name}_per_tile"] = calls / work
    return counts


# ------------------------------------------------------------------ self-test
def self_test() -> int:
    """Run each workload at a tiny size through both passes and check the
    metric names, the units, the digest and the failure accounting."""
    import dataclasses

    import scenarios

    problems = []
    for name in scenarios.SCENARIOS:
        scenario, _raw, _cal = setup(name, DEFAULT_SEED, tiny=True)
        for trace in (0, 1):
            report = Report()
            print(f"self-test: {name} --trace {trace}")
            if trace:
                correct, attempted, failed = per_layer(scenario, True, report)
            else:
                correct, attempted, failed = end_to_end(
                    scenario, 1, True, report
                )
            if not correct or failed or not attempted:
                problems.append(f"{name} trace {trace}: run not correct")
            problems += [
                f"{name}: bad metric name or unit {bad!r}"
                for bad in report.check_names()
            ]
            if "run_tail_ms" in report.metrics:
                problems.append(f"{name}: tail reported below 20 samples")

    # The digest must see every simulated number and ignore nothing.
    sweep = scenarios.PaperSweep(DEFAULT_SEED, tiny=True)
    run = run_pass(sweep, 0)
    base = pass_digest(sweep, run)
    if pass_digest(sweep, run_pass(sweep, 0)) != base:
        problems.append("digest differs between identical passes")
    bumped = dataclasses.replace(
        run.results[0], total_cycles=run.results[0].total_cycles + 1e-9
    )
    run.results[0] = bumped
    if pass_digest(sweep, run) == base:
        problems.append("digest missed a changed cycle count")

    # A result that breaks an invariant, and a unit that raised, both
    # count as failed.
    run.results[0] = dataclasses.replace(bumped, total_cycles=float("nan"))
    run.results[1] = None
    run.errors[1] = "SimulationError: injected"
    failed = failed_units(sweep, run)
    if sorted(failed) != [0, 1]:
        problems.append(f"failure accounting found {sorted(failed)}")
    if failed_frac(len(failed), len(run.results)) != 2 / len(run.results):
        problems.append("failed_frac is not failed / attempted")
    if tail([1.0] * 19) is not None or tail(list(range(24)))[0] != 58:
        problems.append("tail percentile rule broken")

    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print("self-test ok" if not problems else "self-test failed")
    return 1 if problems else 0


# ----------------------------------------------------------------------- main
def main(argv: typing.Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=("paper-sweep", "serve-bursty", "fault-obs")
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.self_test:
        return self_test()

    scenario, raw, cal = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"raw_s": raw, "calibrated_s": cal}))
        return 0

    print(
        f"workload {args.workload} seed {args.seed} "
        f"{'profiled' if args.trace else 'untraced'}"
    )
    report = Report()
    if args.trace:
        correct, attempted, failed = per_layer(scenario, False, report)
    else:
        samples = [(raw, cal)] + [
            setup_in_child(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        report.add(
            "setup_s", statistics.median(c for _r, c in samples), "s",
            f"raw {statistics.median(r for r, _c in samples):.4f} s; "
            f"median of {len(samples)}",
        )
        correct, attempted, failed = end_to_end(
            scenario, args.seconds, False, report
        )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report.add("peak_rss_mb", peak_kb / 1024, "MB")
    bad = report.check_names()
    if bad:
        print(f"error: bad metric names or units: {bad}")
        correct = False
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": report.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
