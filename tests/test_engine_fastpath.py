"""Tests for the kernel fast paths added by the engine hot-path work.

Covers the analytic bandwidth-server shortcut (and its fall-back to the
exact queued model under contention), the stage interpreter that runs
every data path, AllOf edge cases around triggered and duplicated
children, Store get-before-put determinism, non-finite time rejection
in every scheduling entry point, the pooled-timeout recycle path, and
the lazy span materialization of the tracer.
"""

import pytest

from repro.engine import (
    DELAY,
    DMA,
    HOOK,
    LEG,
    AllOf,
    BandwidthServer,
    Event,
    Pipeline,
    Simulator,
    Store,
)
from repro.engine.event import PooledTimeout
from repro.engine.trace import TraceRecord, Tracer
from repro.errors import ConfigError, SimulationError
from repro.faults import DMA_DROP, DMA_STALL, FaultInjector, parse_fault_spec


class TestTransferAnalytic:
    def test_uncontended_returns_float(self):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_cycle=4.0, latency=2.0)
        done = server.transfer_analytic(100.0)
        assert isinstance(done, float)
        assert done == 100.0 / 4.0 + 2.0

    def test_overlapping_second_transfer_defers_to_exact_model(self):
        """The fast path only fires when the channel is idle.

        Two transfers issued back-to-back at t=0: the first sees an idle
        channel and resolves in closed form; the second sees ``_free_at``
        in the future and must come back as a real queued event.
        """
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_cycle=4.0, latency=2.0)
        first = server.transfer_analytic(100.0)
        second = server.transfer_analytic(60.0)
        assert isinstance(first, float)
        assert isinstance(second, Event)
        done = []
        second.add_callback(lambda e: done.append(sim.now))
        sim.run()
        # Queued behind the first transfer's 25-cycle occupancy.
        assert done == [25.0 + 60.0 / 4.0 + 2.0]

    def test_completion_times_match_plain_transfer_sequence(self):
        """Analytic and event paths agree bit-for-bit under contention."""
        sizes = [100.0, 60.0, 0.0, 512.0, 7.0]

        def issue(sim, server, use_analytic, log):
            def body():
                for nbytes in sizes:
                    result = (
                        server.transfer_analytic(nbytes)
                        if use_analytic
                        else server.transfer(nbytes)
                    )
                    if isinstance(result, float):
                        log.append(result)
                        yield sim.delay(result - sim.now)
                    else:
                        yield result
                        log.append(sim.now)

            sim.process(body())

        exact_log: list = []
        sim1 = Simulator()
        issue(sim1, BandwidthServer(sim1, 4.0, latency=2.0), False, exact_log)
        sim1.run()

        fast_log: list = []
        sim2 = Simulator()
        issue(sim2, BandwidthServer(sim2, 4.0, latency=2.0), True, fast_log)
        sim2.run()

        assert fast_log == exact_log

    def test_accounting_identical_on_both_paths(self):
        sim = Simulator()
        fast = BandwidthServer(sim, 8.0, latency=1.0)
        exact = BandwidthServer(sim, 8.0, latency=1.0)
        fast.transfer_analytic(64.0)
        exact.transfer(64.0)
        assert fast.busy_cycles == exact.busy_cycles
        assert fast.total_bytes == exact.total_bytes
        assert fast.total_transfers == exact.total_transfers
        assert fast.last_done == exact.last_done
        assert fast._free_at == exact._free_at

    def test_negative_size_rejected_on_fast_path(self):
        sim = Simulator()
        server = BandwidthServer(sim, 4.0)
        with pytest.raises(ConfigError):
            server.transfer_analytic(-1.0)


class TestPipeline:
    """The stage interpreter against the equivalent generator process."""

    SIZES = [(0.0, 96.0), (0.0, 40.0), (3.0, 200.0), (3.0, 8.0), (20.0, 64.0)] * 4

    def platform(self):
        sim = Simulator()
        leg = BandwidthServer(sim, 8.0, latency=2.0)
        dma = BandwidthServer(sim, 4.0, latency=1.0)
        injector = FaultInjector(parse_fault_spec("dma:0.3,dmadrop:0.3"), seed=3)
        return sim, leg, dma, injector

    def run_pipelines(self):
        sim, leg, dma, injector = self.platform()
        log = []

        def book(run):
            log.append(("book", run.ref, sim.now))

        stages = (
            (LEG, leg, None),
            (DELAY, 5.0, None),
            (DMA, (dma, injector, 0), None),
            (HOOK, book, None),
            (HOOK, lambda run: sim.timeout(2.0), None),
        )

        def issue(ref, nbytes):
            run = Pipeline(sim, stages, nbytes, ref)
            run.event.add_callback(lambda e: log.append(("done", ref, sim.now, e.value)))

        for i, (at, nbytes) in enumerate(self.SIZES):
            sim.timeout(at).add_callback(lambda e, i=i, n=nbytes: issue(f"r{i}", n))
        sim.run()
        return log, sim._seq, injector.stats

    def run_processes(self):
        sim, leg, dma, injector = self.platform()
        log = []
        spec = injector.spec

        def body(ref, nbytes):
            yield leg.transfer(nbytes)
            yield sim.delay(5.0)
            attempt = 0
            while True:
                outcome = injector.dma_outcome(0)
                if outcome == DMA_STALL:
                    injector.stats.dma_stalls += 1
                    yield sim.delay(spec.dma_stall_cycles)
                elif outcome == DMA_DROP:
                    if attempt < spec.dma_max_retries:
                        injector.stats.dma_retries += 1
                        yield sim.delay(injector.dma_retry_delay(attempt))
                        attempt += 1
                        continue
                    injector.stats.dma_forced_recoveries += 1
                yield dma.transfer(nbytes)
                break
            log.append(("book", ref, sim.now))
            yield sim.timeout(2.0)
            return nbytes

        def issue(ref, nbytes):
            proc = sim.process(body(ref, nbytes))
            proc.add_callback(lambda e: log.append(("done", ref, sim.now, e.value)))

        for i, (at, nbytes) in enumerate(self.SIZES):
            sim.timeout(at).add_callback(lambda e, i=i, n=nbytes: issue(f"r{i}", n))
        sim.run()
        return log, sim._seq, injector.stats

    def test_mixed_pipeline_matches_generator_process(self):
        """Leg, delay, faulty DMA and hooks: same times, same heap entries."""
        log, entries, stats = self.run_pipelines()
        expected_log, expected_entries, expected_stats = self.run_processes()
        assert stats.dma_stalls and stats.dma_retries  # the fault model ran
        assert log == expected_log
        assert entries == expected_entries
        assert stats == expected_stats

    def test_contended_leg_falls_back_to_exact_event(self):
        sim = Simulator()
        results = []

        class Recording(BandwidthServer):
            def transfer_analytic(self, nbytes):
                result = super().transfer_analytic(nbytes)
                results.append(result)
                return result

        server = Recording(sim, 4.0, latency=2.0)
        done = []
        for nbytes in (100.0, 60.0):
            run = Pipeline(sim, ((LEG, server, None),), nbytes)
            run.event.add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert [r.__class__ for r in results] == [float, Event]
        # Exactly the queued model's completion times.
        assert done == [100.0 / 4.0 + 2.0, 100.0 / 4.0 + 60.0 / 4.0 + 2.0]

    def test_stage_span_recorded_when_wait_ends(self):
        sim = Simulator()
        tracer = Tracer()
        server = BandwidthServer(sim, 4.0, latency=2.0)
        stages = (
            (DELAY, 3.0, None),
            (LEG, server, (tracer, "island0.dma", "dma")),
        )
        Pipeline(sim, stages, 64.0, "t0.a")
        sim.run()
        assert tracer.records == [
            TraceRecord(3.0, 3.0 + 64.0 / 4.0 + 2.0, "island0.dma", "dma", "64B", "t0.a")
        ]


class TestTracerSpan:
    def test_span_equals_record(self):
        """Hot-path spans materialize exactly as record() spans do."""
        fast, slow = Tracer(), Tracer()
        fast.span(0.0, 4.0, "mc0", "mem", 64.0, "t1.a")
        fast.span(1.0, 2.0, ("mesh.{},{}->{},{}", 0, 1, 2, 3), "noc", ("{:g}B/{}h", 48.0, 4))
        fast.span(2.0, 5.0, "island0.slot1", "compute", "t1.a", "t1.a", {"invocations": 3})
        slow.record(0.0, 4.0, "mc0", "mem", "64B", "t1.a")
        slow.record(1.0, 2.0, "mesh.0,1->2,3", "noc", "48B/4h")
        slow.record(2.0, 5.0, "island0.slot1", "compute", "t1.a", "t1.a", {"invocations": 3})
        assert fast.records == slow.records
        assert fast._raw_spans() == slow._raw_spans()

    def test_names_formatted_once(self):
        tracer = Tracer()
        label = tracer.name(64.0)
        assert label == "64B"
        assert tracer.name(64.0) is label
        assert tracer.name(("island{}.slot{}", 2, 7)) == "island2.slot7"


class TestAllOfEdgeCases:
    def test_already_triggered_children_counted(self):
        """Children that fired before the join was built still resolve it."""
        sim = Simulator()
        early = Event(sim).succeed("early")
        late = sim.timeout(5.0, value="late")
        sim.run(until=1.0)  # fire `early` only
        assert early.triggered and not late.triggered
        join = AllOf(sim, [early, late])
        sim.run()
        assert join.value == ["early", "late"]

    def test_all_children_pretriggered_fires_without_stepping(self):
        sim = Simulator()
        a = Event(sim).succeed(1)
        b = Event(sim).succeed(2)
        sim.run()
        join = AllOf(sim, [a, b])
        # Both callbacks ran synchronously inside __init__; only the
        # join's own succeed() entry is left on the heap.
        sim.run()
        assert join.triggered
        assert join.value == [1, 2]

    def test_duplicate_event_counts_once_per_mention(self):
        """Listing one event twice needs only one firing, yields two values."""
        sim = Simulator()
        shared = sim.timeout(3.0, value="x")
        join = AllOf(sim, [shared, shared])
        sim.run()
        assert join.triggered
        assert join.value == ["x", "x"]

    def test_value_order_follows_argument_order_not_fire_order(self):
        sim = Simulator()
        slow = sim.timeout(9.0, value="slow")
        quick = sim.timeout(1.0, value="quick")
        join = AllOf(sim, [slow, quick])
        sim.run()
        assert join.value == ["slow", "quick"]


class TestStoreDeterminism:
    def test_getters_before_puts_fifo(self):
        """Blocked getters are served in arrival order, not put order."""
        sim = Simulator()
        store = Store(sim)
        log = []

        def getter(tag):
            item = yield store.get()
            log.append((tag, item, sim.now))

        def putter():
            yield sim.timeout(1.0)
            store.put("first")
            yield sim.timeout(1.0)
            store.put("second")

        sim.process(getter("g0"))
        sim.process(getter("g1"))
        sim.process(putter())
        sim.run()
        assert log == [("g0", "first", 1.0), ("g1", "second", 2.0)]

    def test_interleaved_get_put_get(self):
        sim = Simulator()
        store = Store(sim)
        blocked = store.get()
        store.put("a")  # wakes the blocked getter, bypassing the queue
        store.put("b")  # queued: nobody waiting
        ready = store.get()
        sim.run()
        assert blocked.triggered and blocked.value == "a"
        assert ready.triggered and ready.value == "b"
        assert len(store) == 0


class TestNonFiniteRejection:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_rejects_non_finite(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim._schedule(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_timeout_rejects_bad_delay(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.timeout(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_pooled_delay_rejects_bad_delay_fresh_and_recycled(self, bad):
        sim = Simulator()
        # Fresh path (empty pool) goes through PooledTimeout.__init__.
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.delay(bad)

        # Prime the pool: a consumed delay is recycled by Process._resume.
        def body():
            yield sim.delay(1.0)

        sim.process(body())
        sim.run()
        assert sim._timeout_pool  # the recycle happened
        # Recycled path re-arms inline and must apply the same checks.
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.delay(bad)

    def test_timeout_overflow_to_inf_rejected(self):
        big = 1e308
        sim = Simulator()
        sim.now = big
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.timeout(big)  # now + delay overflows to +inf


class TestPooledTimeoutRecycling:
    def test_consumed_delay_instance_is_reused(self):
        sim = Simulator()
        seen = []

        def body():
            first = sim.delay(1.0)
            seen.append(first)
            yield first
            second = sim.delay(1.0)
            seen.append(second)
            yield second

        sim.process(body())
        sim.run()
        assert isinstance(seen[0], PooledTimeout)
        assert seen[0] is seen[1]  # same object, re-armed from the pool

    def test_public_timeout_never_pooled(self):
        sim = Simulator()

        def body():
            held = sim.timeout(1.0, value="keep")
            yield held
            seen_value = held.value  # still readable after firing
            assert seen_value == "keep"
            yield sim.timeout(1.0)
            assert held.value == "keep"  # not recycled out from under us

        sim.process(body())
        sim.run()
        assert not sim._timeout_pool


class TestLazyTracerMaterialization:
    def test_records_materialized_once_and_cached(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "compute")
        assert tracer._records is None  # nothing materialized yet
        first = tracer.records
        assert first is tracer.records  # same list object on re-access
        assert isinstance(first[0], TraceRecord)

    def test_spans_recorded_after_access_appear(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "compute")
        assert len(tracer.records) == 1
        tracer.record(1.0, 2.0, "b", "mem")
        recs = tracer.records
        assert [r.actor for r in recs] == ["a", "b"]
        assert len(tracer) == 2

    def test_external_append_to_records_visible_to_raw_spans(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "compute")
        tracer.records.append(TraceRecord(1.0, 2.0, "b", "mem"))
        spans = tracer._raw_spans()
        assert [s[2] for s in spans] == ["a", "b"]
        assert tracer.end_time() == 2.0

    def test_record_validation_errors_preserved(self):
        tracer = Tracer()
        with pytest.raises(ConfigError, match="finite"):
            tracer.record(float("nan"), 1.0, "a", "compute")
        with pytest.raises(ConfigError, match="ends before it starts"):
            tracer.record(2.0, 1.0, "a", "compute")
        assert len(tracer) == 0  # nothing slipped in

    def test_trace_record_still_immutable(self):
        rec = TraceRecord(0.0, 1.0, "a", "compute")
        with pytest.raises(Exception):
            rec.start = 5.0


def test_process_non_event_yield_closes_generator():
    """The kernel closes the body so its finally blocks run."""
    sim = Simulator()
    closed = []

    def body():
        try:
            yield "not an event"
        finally:
            closed.append(True)

    sim.process(body())
    with pytest.raises(SimulationError, match="must yield Events"):
        sim.run()
    assert closed == [True]
