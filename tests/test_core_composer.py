"""Tests for the Accelerator Block Composer."""

import collections

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.abb import standard_library
from repro.core import AcceleratorBlockComposer, first_fit, round_robin
from repro.core.allocation import locality_then_load_balance
from repro.core.composer import SOFTWARE_FALLBACK, Grant
from repro.engine import Simulator
from repro.errors import AllocationError, ConfigError, SimulationError
from repro.island import Island, IslandConfig


def make_islands(sim, n_islands=2, mix=None):
    mix = mix or {"poly": 2, "div": 1}
    lib = standard_library()
    return [
        Island(sim, i, IslandConfig(abb_mix=dict(mix)), lib)
        for i in range(n_islands)
    ]


def make_abc(n_islands=2, mix=None, policy=locality_then_load_balance):
    sim = Simulator()
    islands = make_islands(sim, n_islands, mix)
    return sim, islands, AcceleratorBlockComposer(sim, islands, policy)


class TestRequestRelease:
    def test_immediate_grant_when_free(self):
        sim, islands, abc = make_abc()
        grants = []
        abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        assert len(grants) == 1
        grant = grants[0]
        assert grant.type_name == "poly"
        assert not islands[grant.island_index].slot_usable(grant.slot)

    def test_release_returns_slot(self):
        sim, islands, abc = make_abc()
        grants = []
        abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        grant = grants[0]
        islands[grant.island_index].compute(grant.slot, 1)
        abc.release(grant)
        assert islands[grant.island_index].slot_usable(grant.slot)

    def test_queue_when_all_busy(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"div": 1})
        order = []

        def user(tag, hold):
            grant = yield abc.request("div")
            order.append((tag, sim.now))
            islands[grant.island_index].compute(grant.slot, 1)
            yield sim.timeout(hold)
            abc.release(grant)

        sim.process(user("a", 10))
        sim.process(user("b", 10))
        sim.run()
        assert order == [("a", 0.0), ("b", 10.0)]
        assert abc.total_queued == 1

    def test_unknown_type_raises_immediately(self):
        _, _, abc = make_abc()
        with pytest.raises(AllocationError):
            abc.request("fft")

    def test_missing_type_on_platform_raises(self):
        _, _, abc = make_abc(mix={"poly": 2})
        with pytest.raises(AllocationError):
            abc.request("sum")

    def test_empty_islands_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorBlockComposer(Simulator(), [])


class TestPolicies:
    def test_load_balancing_spreads_work(self):
        sim, islands, abc = make_abc(n_islands=2, mix={"poly": 4})
        grants = []
        for _ in range(4):
            abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        used = {g.island_index for g in grants}
        assert used == {0, 1}

    def test_first_fit_fills_island_zero_first(self):
        sim, islands, abc = make_abc(n_islands=2, mix={"poly": 4}, policy=first_fit)
        grants = []
        for _ in range(4):
            abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        assert all(g.island_index == 0 for g in grants)

    def test_locality_preference_honoured(self):
        sim, islands, abc = make_abc(n_islands=3, mix={"poly": 4})
        grants = []
        abc.request("poly", preferred_island=2).add_callback(
            lambda e: grants.append(e.value)
        )
        sim.run()
        assert grants[0].island_index == 2

    def test_round_robin_rotates(self):
        sim, islands, abc = make_abc(n_islands=2, mix={"poly": 4}, policy=round_robin)
        grants = []
        for _ in range(2):
            abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        assert grants[0].island_index != grants[1].island_index


class TestEmptyIslandPolicies:
    @pytest.mark.parametrize(
        "policy", [locality_then_load_balance, first_fit, round_robin]
    )
    def test_policy_rejects_empty_platform(self, policy):
        with pytest.raises(AllocationError, match="empty island list"):
            policy([], None, 0)

    def test_round_robin_no_zero_division(self):
        # Regression: used to die with a bare ZeroDivisionError
        # (serial % 0) instead of a clear AllocationError.
        with pytest.raises(AllocationError):
            round_robin([], None, 3)


class TestWaiterDrain:
    def test_fifo_wakeup_order(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1})
        order = []

        def user(tag):
            grant = yield abc.request("poly")
            order.append(tag)
            islands[grant.island_index].compute(grant.slot, 1)
            yield sim.timeout(5)
            abc.release(grant)

        for tag in "abcd":
            sim.process(user(tag))
        sim.run()
        assert order == list("abcd")

    def test_waiter_of_other_type_not_starved(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1, "div": 1})
        got = []

        def poly_user():
            grant = yield abc.request("poly")
            islands[grant.island_index].compute(grant.slot, 1)
            yield sim.timeout(50)
            abc.release(grant)
            got.append("poly_done")

        def div_user():
            yield sim.timeout(1)
            grant = yield abc.request("div")
            got.append(("div", sim.now))
            islands[grant.island_index].compute(grant.slot, 1)
            abc.release(grant)

        sim.process(poly_user())
        sim.process(div_user())
        sim.run()
        # div allocation must not wait for the poly holder.
        assert ("div", 1.0) in got

    def test_free_count(self):
        sim, islands, abc = make_abc(n_islands=2, mix={"poly": 2})
        assert abc.free_count("poly") == 4
        grants = []
        abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        assert abc.free_count("poly") == 3

    def test_estimate_wait_zero_when_free(self):
        _, _, abc = make_abc()
        assert abc.estimate_wait("poly") == 0.0

    def test_operational_and_pending_counts(self):
        sim, _, abc = make_abc(n_islands=2, mix={"poly": 2})
        assert abc.operational_count("poly") == 4
        assert abc.pending_requests("poly") == 0
        for _ in range(6):
            abc.request("poly")
        sim.run()
        assert abc.pending_requests("poly") == 2

    def test_estimate_wait_monotone_in_queue_depth(self):
        # Same property the GAM guarantees: deeper queue, never a
        # smaller estimate (the admission-signal invariant).
        estimates = []
        for depth in range(5):
            sim, _, abc = make_abc(n_islands=1, mix={"poly": 2})
            for _ in range(2 + depth):
                abc.request("poly")
            sim.run()
            estimates.append(abc.estimate_wait("poly", service_hint=50.0))
        assert estimates == sorted(estimates)
        assert estimates[0] > 0

    def test_estimate_wait_infinite_when_type_dead(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1, "div": 1})
        islands[0].fail_slot(islands[0].slots_of_type("poly")[0])
        assert abc.estimate_wait("poly") == float("inf")

    def test_service_cycles_observed_on_release(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1})

        def user(hold):
            grant = yield abc.request("poly")
            islands[grant.island_index].compute(grant.slot, 1)
            yield sim.timeout(hold)
            abc.release(grant)

        sim.process(user(80))
        sim.process(user(40))
        sim.run()
        assert abc.service_cycles.count == 2
        assert abc.service_cycles.mean == pytest.approx(60.0)


class TestBadRelease:
    def test_double_release_leaves_statistics_alone(self):
        """A second release of one grant raises before any accounting
        (it used to record a second service-time sample first)."""
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1})
        grants = []
        abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        grant = grants[0]
        islands[0].compute(grant.slot, 1)
        sim._schedule(30.0, lambda: None)
        sim.run()
        abc.release(grant)
        before = (
            abc.service_cycles.count, abc.service_cycles.mean,
            islands[0].free_slots("poly"), islands[0].busy_fraction(),
            islands[0]._holders[grant.slot], islands[0]._computing[grant.slot],
        )
        with pytest.raises(SimulationError, match="finished while idle"):
            abc.release(grant)
        after = (
            abc.service_cycles.count, abc.service_cycles.mean,
            islands[0].free_slots("poly"), islands[0].busy_fraction(),
            islands[0]._holders[grant.slot], islands[0]._computing[grant.slot],
        )
        assert after == before
        assert abc.service_cycles.count == 1

    def test_equal_grant_is_not_the_holder(self):
        """A grant built by hand with the same fields as the one the ABC
        handed out cannot release the slot; the real one still can."""
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1})
        grants = []
        abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        grant = grants[0]
        islands[0].compute(grant.slot, 1)
        forged = Grant(
            grant.island_index, grant.slot, grant.type_name, grant.granted_at
        )
        assert forged == grant
        with pytest.raises(SimulationError, match="non-owner"):
            abc.release(forged)
        assert not islands[0].slot_usable(grant.slot)
        assert abc.service_cycles.count == 0
        abc.release(grant)
        assert islands[0].slot_usable(grant.slot)


class _ReferenceComposer(AcceleratorBlockComposer):
    """The ABC with the full-rescan drain it had before per-type waiter
    counts and the early-exit pass: `_drain_waiters` and
    `pending_requests` below are verbatim copies of that code, kept as
    the oracle the differential test compares against."""

    def _drain_waiters(self) -> None:
        # Retry every waiter in FIFO order until a full pass grants
        # nothing (a release can free neighbours too, under SPM sharing,
        # so one release may unblock several waiters).
        #
        # Per-type free counts gate the scan: a waiter whose type has no
        # free slot left this pass is requeued with a cheap dict lookup
        # instead of a full policy + slot-scan `_try_allocate` call.
        # Under the open-loop serving frontend the wait queue can hold
        # thousands of requests, and the ungated scan made every release
        # O(waiters x slots) — this is the difference between serving
        # sessions draining in seconds versus minutes.  `_serial` is
        # still bumped on gated skips so allocation decisions (which may
        # consume the serial, e.g. round_robin) are bit-identical to the
        # ungated scan's.
        progress = True
        while progress and self._waiters:
            progress = False
            free_count: dict[str, int] = {}
            operational: dict[str, bool] = {}
            remaining: collections.deque = collections.deque()
            while self._waiters:
                waiter = self._waiters.popleft()
                type_name = waiter.type_name
                if type_name not in operational:
                    operational[type_name] = self._type_operational(type_name)
                if not operational[type_name]:
                    # Every slot of this type hard-failed while the
                    # request was queued; resolve it to software rather
                    # than strand it forever.
                    progress = True
                    self.fallback_grants += 1
                    waiter.event.succeed(SOFTWARE_FALLBACK)
                    continue
                if type_name not in free_count:
                    free_count[type_name] = self.free_count(type_name)
                if free_count[type_name] <= 0:
                    # No slot can serve this waiter; skip the policy
                    # call but consume its serial so decisions match
                    # the ungated scan exactly.
                    self._serial += 1
                    remaining.append(waiter)
                    continue
                grant = self._try_allocate(type_name, waiter.preferred)
                if grant is None:
                    # SPM-sharing port conflicts can shrink free slots
                    # mid-pass; treat the stale count as exhausted.
                    free_count[type_name] = 0
                    remaining.append(waiter)
                else:
                    # A cached count can only overestimate after this
                    # grant (allocation never frees slots mid-pass), and
                    # an overestimate merely costs one corrective
                    # `_try_allocate`, so other types' counts stay.
                    free_count[type_name] -= 1
                    progress = True
                    self.wait_cycles.record(self.sim.now - waiter.requested_at)
                    waiter.event.succeed(grant)
            self._waiters = remaining

    def pending_requests(self, type_name: str) -> int:
        """Queued allocation requests for one type."""
        return sum(1 for w in self._waiters if w.type_name == type_name)


#: Two islands of this mix: each type has 1-4 slots platform-wide, so
#: random fault sequences often fail the last slot of a type.
DRAIN_MIX = {"poly": 2, "div": 1, "sum": 1}
DRAIN_TYPES = sorted(DRAIN_MIX)

drain_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from(DRAIN_TYPES),
            st.sampled_from([None, 0, 1]),
        ),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("fail"), st.integers(0, 1), st.integers(0, 3)),
    ),
    max_size=60,
)


def _drive(cls, policy, sharing, ops):
    """Run one op sequence on a fresh 2-island ABC of class ``cls``;
    returns which request got which resolution, in firing order, and
    the observable state after every op."""
    sim = Simulator()
    lib = standard_library()
    islands = [
        Island(sim, i, IslandConfig(abb_mix=dict(DRAIN_MIX), spm_sharing=sharing), lib)
        for i in range(2)
    ]
    abc = cls(sim, islands, policy)
    resolutions = []
    held = []

    def on_resolve(request_id, event):
        value = event.value
        if value == SOFTWARE_FALLBACK:
            resolutions.append((request_id, value))
            return
        resolutions.append((request_id, value.island_index, value.slot))
        islands[value.island_index].compute(value.slot, 1)
        held.append(value)

    trace = []
    for index, op in enumerate(ops):
        if op[0] == "request":
            abc.request(op[1], op[2]).add_callback(
                lambda event, request_id=index: on_resolve(request_id, event)
            )
        elif op[0] == "release":
            if held:
                abc.release(held.pop(op[1] % len(held)))
        elif not islands[op[1]]._failed[op[2]]:
            abc.on_slot_failed(islands[op[1]].fail_slot(op[2]))
        sim.run()
        trace.append((
            len(resolutions), abc._serial, abc.queue_length(),
            tuple(abc.pending_requests(t) for t in DRAIN_TYPES),
        ))
    return resolutions, trace, abc.wait_cycles.count, abc.fallback_grants


class TestDrainMatchesFullRescan:
    @pytest.mark.parametrize("sharing", [False, True])
    @pytest.mark.parametrize(
        "policy", [locality_then_load_balance, first_fit, round_robin]
    )
    @settings(max_examples=100, deadline=None)
    @given(ops=drain_ops)
    @example(ops=[
        # Fill div and sum, queue div, sum, div; freeing a sum slot
        # serves the queued sum and ends the pass early, and the queued
        # divs must keep their order for the next div slot.
        ("request", "div", None), ("request", "div", None),
        ("request", "div", None), ("request", "sum", None),
        ("request", "sum", None), ("request", "sum", None),
        ("request", "div", None), ("release", 2), ("release", 0),
    ])
    @example(ops=[
        ("request", "div", None), ("request", "div", None),
        ("request", "div", 1), ("request", "poly", None),
        ("fail", 0, 0), ("release", 0), ("fail", 1, 0), ("release", 0),
    ])
    def test_same_grants_fallbacks_serial_and_counts(self, policy, sharing, ops):
        """Identical grants `(island, slot)` to the same requests,
        SOFTWARE_FALLBACK resolutions, `_serial` and pending counts as
        the full rescan, including when the last slot of a type fails
        with waiters queued."""
        assert _drive(AcceleratorBlockComposer, policy, sharing, ops) == _drive(
            _ReferenceComposer, policy, sharing, ops
        )
