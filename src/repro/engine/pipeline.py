"""Data paths as stage tuples, run by one interpreter.

Every data movement in the models is a short fixed pipeline: NoC
interface -> DMA -> island network -> SPM, a ring traversal, a mesh
tail, DRAM -> mesh -> island.  Each is declared once, as a tuple of
*stages*, and :class:`Pipeline` runs it.  A stage is a triple
``(kind, operand, span)``:

* ``(LEG, server, span)`` — one transfer of ``run.nbytes`` through a
  :class:`~repro.engine.resources.BandwidthServer`: the wait ends at the
  completion time :meth:`~repro.engine.resources.BandwidthServer.reserve`
  returns, queued behind the server's backlog;
* ``(DELAY, cycles, span)`` — a fixed delay;
* ``(DMA, (server, injector, island_id), span)`` — a DMA leg under the
  :class:`~repro.faults.FaultInjector`'s stall/drop model: each attempt
  draws its fate when it starts; a stall waits ``dma_stall_cycles``
  once, a drop waits the timeout plus exponential backoff and retries,
  up to ``dma_max_retries`` times before the transfer is forced through
  (DMA engine reset), and then the leg transfers as ``LEG`` does;
* ``(HOOK, fn, span)`` — ``fn(run)`` returns a float completion time,
  an Event (a nested pipeline, a mesh transfer) or None (an energy
  charge, SPM bookkeeping: no wait, the next stage starts at once).

``span`` is None, or ``(tracer, actor, kind)``: when the stage's wait
ends, ``[stage start, now]`` is recorded through
:meth:`~repro.engine.trace.Tracer.record`, labelled with the byte count.
Owners build their stage tuples once, with spans only when a tracer is
attached and a ``DMA`` stage only when the injector's DMA fault model
is active, so an untraced, fault-free run does neither.

Every wait follows one protocol: a **float** is a completion time, for
which the pipeline schedules its own wake-up; an **Event** (a nested
pipeline, a mesh transfer) is waited on through its callback.  Either
way a wait is one scheduled entry, at the time and in the order a
generator's ``yield server.transfer(n)`` would schedule it.  With the
kick at construction and the final ``succeed``, a run schedules exactly
the entries of the generator process that would spell the same path
out with one ``yield`` per wait.
"""

from __future__ import annotations

import typing

from repro.engine.event import Event
from repro.faults import DMA_DROP, DMA_STALL

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator

#: Stage kinds (the first element of a stage tuple).
LEG, DELAY, DMA, HOOK = range(4)

#: ``Pipeline._attempt`` after a DMA stall: transfer on wake-up.
_STALLED = -1


def as_event(sim: "Simulator", time: float, value: object = None) -> Event:
    """The Event form of a float wait: a new event firing with ``value``
    at ``time`` (one scheduled entry, where a pipeline would schedule
    its own wake-up)."""
    event = Event(sim)
    event.value = value
    event._scheduled = True
    sim._schedule(time, event._fire)
    return event


class Pipeline:
    """One run of a data path; :attr:`event` fires with ``nbytes`` at the end.

    ``ctx`` carries the path's per-run parameters (slots, stream ids)
    for its hooks.  ``start`` is when the first stage starts: None for
    the kick (now, but through the same-time lane, so issue order cannot
    perturb same-time event ordering), or a float time to wait for.
    """

    __slots__ = (
        "sim", "event", "stages", "nbytes", "ref", "ctx",
        "_index", "_t0", "_attempt", "_advance_cb",
    )

    def __init__(
        self,
        sim: "Simulator",
        stages: tuple,
        nbytes: float,
        ref: str = "",
        ctx: typing.Any = None,
        start: typing.Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.event = Event(sim)
        self.stages = stages
        self.nbytes = nbytes
        self.ref = ref
        self.ctx = ctx
        self._index = -1
        self._t0 = 0.0
        # None, or the state of a DMA leg waiting out a stall/backoff.
        self._attempt: typing.Optional[int] = None
        advance = self._advance_cb = self._advance
        if start is None:
            sim._lane.append(advance)
            sim._seq += 1
        else:
            sim._schedule(start, advance)

    def _advance(self, _event: typing.Optional[Event] = None) -> None:
        sim = self.sim
        stages = self.stages
        index = self._index
        if self._attempt is not None:
            # Woken inside a DMA leg after a stall or a backoff.
            nxt = self._dma(stages[index][1])
        else:
            if index >= 0:
                span = stages[index][2]
                if span is not None:
                    tracer, actor, kind = span
                    tracer.record(self._t0, sim.now, actor, kind, self.nbytes, self.ref)
            last = len(stages) - 1
            while True:
                if index == last:
                    self._index = index
                    self.event.succeed(self.nbytes)
                    return
                index += 1
                kind, operand, span = stages[index]
                if span is not None:
                    self._t0 = sim.now
                if kind == LEG:
                    nxt = operand.reserve(self.nbytes)
                elif kind == HOOK:
                    nxt = operand(self)
                    if nxt is None:
                        continue
                elif kind == DELAY:
                    nxt = sim.now + operand
                else:
                    self._attempt = 0
                    nxt = self._dma(operand)
                break
            self._index = index
        if nxt.__class__ is float:
            sim._schedule(nxt, self._advance_cb)
        else:
            nxt.add_callback(self._advance_cb)

    def _dma(self, operand: tuple) -> float:
        """Next wait of a fault-aware DMA leg: a stall or backoff, or
        the transfer itself (which ends the leg)."""
        server, injector, island_id = operand
        attempt = self._attempt
        if attempt != _STALLED:
            outcome = injector.dma_outcome(island_id)
            if outcome == DMA_STALL:
                injector.stats.dma_stalls += 1
                self._attempt = _STALLED
                return self.sim.now + injector.spec.dma_stall_cycles
            if outcome == DMA_DROP:
                if attempt < injector.spec.dma_max_retries:
                    injector.stats.dma_retries += 1
                    self._attempt = attempt + 1
                    return self.sim.now + injector.dma_retry_delay(attempt)
                injector.stats.dma_forced_recoveries += 1
        self._attempt = None
        return server.reserve(self.nbytes)
