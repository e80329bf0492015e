"""Unit tests for the event/timeout/simulator primitives."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DELAY, Event, Pipeline, Simulator, Timeout
from repro.errors import SimulationError


def test_simulator_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() is None


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.timeout(5.0).add_callback(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_timeouts_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.timeout(3.0).add_callback(lambda e: order.append("b"))
    sim.timeout(1.0).add_callback(lambda e: order.append("a"))
    sim.timeout(7.0).add_callback(lambda e: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.timeout(2.0, tag).add_callback(lambda e: order.append(e.value))
    sim.run()
    assert order == list(range(10))


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.timeout(10.0).add_callback(lambda e: fired.append(1))
    end = sim.run(until=4.0)
    assert end == 4.0
    assert fired == []
    sim.run()
    assert fired == [1]


def test_event_succeed_carries_value():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.succeed("payload")
    sim.run()
    assert seen == ["payload"]


def test_event_double_succeed_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_callback_added_after_trigger_runs_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed(42)
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == [42]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Timeout(sim, -1.0)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim._schedule(1.0, lambda: None)


def test_event_triggered_flag():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    event.succeed()
    sim.run()
    assert event.triggered


def test_hot_path_classes_are_slotted():
    """Event-loop objects are allocated per transfer/grant; they must
    stay ``__slots__``-based (no per-instance ``__dict__``)."""
    from repro.engine import AllOf, Resource

    sim = Simulator()
    instances = [
        sim.event(),
        sim.timeout(1.0),
        sim.process(x for x in []),
        Resource(sim),
        AllOf(sim, []),
    ]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_run_until_before_now_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError, match="already at"):
        sim.run(until=4.0)


class _HeapOnlySim:
    """The reference order: every entry, same-time or not, is one
    ``(time, seq, callback)`` heap entry, popped in order."""

    def __init__(self) -> None:
        self.now = 0.0
        self.heap: list = []
        self.seq = 0

    def schedule(self, time: float, callback) -> None:
        heappush(self.heap, (time, self.seq, callback))
        self.seq += 1

    def peek(self):
        return self.heap[0][0] if self.heap else None

    def run(self, until=None) -> float:
        while self.heap:
            if until is not None and self.heap[0][0] > until:
                self.now = until
                return until
            time, _seq, callback = heappop(self.heap)
            self.now = time
            callback()
        return self.now


#: How a node schedules a child: a kind and a delay (ignored by the
#: kinds that always fire at ``now``).
SCHEDULE_KINDS = ["succeed", "timeout", "schedule", "process", "pipeline"]

lane_programs = st.lists(
    st.tuples(
        st.integers(0, 1_000),
        st.sampled_from(SCHEDULE_KINDS),
        st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5]),
    ),
    min_size=1,
    max_size=40,
)


def _children(program):
    """Node ``i + 1`` is a child of node ``parent % (i + 1)``; node 0 is
    scheduled before the run."""
    children = [[] for _ in range(len(program) + 1)]
    for i, (parent, kind, delay) in enumerate(program):
        children[parent % (i + 1)].append((i + 1, kind, delay))
    return children


def _run_engine(program, until):
    sim = Simulator()
    children = _children(program)
    log = []

    def fire(node):
        log.append((node, sim.now, sim.peek()))
        for child, kind, delay in children[node]:
            schedule(child, kind, delay)

    def schedule(child, kind, delay):
        def call(_event=None):
            fire(child)

        if kind == "succeed":
            event = Event(sim)
            event.add_callback(call)
            event.succeed()
        elif kind == "timeout":
            sim.timeout(delay).add_callback(call)
        elif kind == "schedule":
            sim._schedule(sim.now + delay, call)
        elif kind == "process":
            def body():
                yield sim.timeout(delay)
                fire(child)

            sim.process(body())
        else:
            Pipeline(sim, ((DELAY, delay, None),), 0.0).event.add_callback(call)

    fire(0)
    peeks = [sim.peek()]
    stopped = sim.run(until=until)
    checkpoint = (list(log), stopped, sim.now, sim.peek())
    sim.run()
    return log, checkpoint, peeks, sim._seq, sim.now


def _run_reference(program, until):
    ref = _HeapOnlySim()
    children = _children(program)
    log = []

    def fire(node):
        log.append((node, ref.now, ref.peek()))
        for child, kind, delay in children[node]:
            schedule(child, kind, delay)

    def schedule(child, kind, delay):
        now = ref.now

        def call():
            fire(child)

        if kind == "succeed":
            ref.schedule(now, call)
        elif kind in ("timeout", "schedule"):
            ref.schedule(now + delay, call)
        elif kind == "process":
            # Kick, then the timeout; the body returns and the process
            # event itself succeeds.
            def resumed():
                fire(child)
                ref.schedule(ref.now, lambda: None)

            ref.schedule(now, lambda: ref.schedule(ref.now + delay, resumed))
        else:
            # Kick, then the DELAY stage's wake-up, then the final succeed.
            ref.schedule(
                now,
                lambda: ref.schedule(
                    ref.now + delay, lambda: ref.schedule(ref.now, call)
                ),
            )

    fire(0)
    peeks = [ref.peek()]
    stopped = ref.run(until=until)
    checkpoint = (list(log), stopped, ref.now, ref.peek())
    ref.run()
    return log, checkpoint, peeks, ref.seq, ref.now


@settings(max_examples=300, deadline=None)
@given(program=lane_programs, until=st.sampled_from([0.0, 1.0, 2.5, 3.0]))
def test_same_time_lane_keeps_time_seq_order(program, until):
    """Random mixes of succeed(), timeout(0), _schedule(now),
    process and pipeline kicks and future entries fire in exactly the
    ``(time, seq)`` order of a heap-only simulator; ``peek()`` (also
    while same-time entries are pending), ``run(until=...)`` and the
    count of scheduled entries agree too."""
    assert _run_engine(program, until) == _run_reference(program, until)
