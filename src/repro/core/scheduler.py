"""Tile scheduler: executes one flow-graph instance on a system.

A *tile* is one instance of a benchmark's ABB flow graph (one unit of
input data).  For every task the scheduler:

1. waits for all chained producers to finish,
2. asks the ABC for an ABB of the right type — preferring the island
   where most of the task's chained input already resides,
3. pulls operands in parallel: memory inputs via a memory controller and
   the NoC, chained inputs from producer islands (island-local chaining
   uses the SPM<->DMA network directly; cross-island chaining crosses the
   NoC),
4. streams the invocations through the ABB pipeline,
5. writes sink outputs back to memory, then releases the block.

The scheduler is deliberately work-conserving and deadlock-free: blocks
are held only from allocation to writeback, and chained data is parked at
the producer island until the consumer is placed.

Under fault injection the ABC may answer an allocation request with
:data:`~repro.core.composer.SOFTWARE_FALLBACK` (every ABB of the type is
out of service); the scheduler then runs the task on a host core —
operands fetched from shared memory, results written back so downstream
consumers (hardware or software) can read them — keeping the tile's
dataflow intact on a degraded platform.
"""

from __future__ import annotations

import typing

from repro.abb.flowgraph import ABBFlowGraph
from repro.core.composer import Grant, SOFTWARE_FALLBACK
from repro.engine import AllOf, Event
from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import SystemModel

class TileScheduler:
    """Runs one flow-graph instance to completion.

    ``tenant`` is an optional tenancy tag: under the multi-tenant
    serving frontend (:mod:`repro.serve`) every request carries its
    tenant's name so trace records attribute queueing and compute to the
    tenant that caused them.  Single-workload runs leave it empty and
    behave exactly as before.
    """

    def __init__(
        self,
        system: "SystemModel",
        graph: ABBFlowGraph,
        tile_id: int,
        tenant: str = "",
    ) -> None:
        self.system = system
        self.graph = graph
        self.tile_id = tile_id
        self.tenant = tenant
        self._tracer = getattr(system, "tracer", None)
        self._tags: dict[str, str] = {}
        # Maps task -> (island, slot); None marks a task that ran in
        # software (its results live in shared memory, not an SPM).
        self.locations: dict[str, typing.Optional[tuple[int, int]]] = {}
        self._done: dict[str, Event] = {}
        self._task_index = {t.task_id: i for i, t in enumerate(graph.tasks)}
        self.used_fallback = False

    # ---------------------------------------------------------------- run
    def run(self) -> Event:
        """Start the tile; returns an event firing at tile end.

        Only root tasks spawn a process up front.  Every downstream task
        is started by a countdown callback on its producers' done events
        — the spawn happens inside the last producer's fire, the same
        entry the old per-task producer-join ``AllOf`` fired in, so the
        event order is unchanged while the parked generator and join
        object per waiting task disappear.
        """
        sim = self.system.sim
        order = self.graph.topological_order()
        for task_id in order:
            self._done[task_id] = Event(sim)
        tile_done = AllOf(sim, [self._done[t] for t in order])
        for task_id in order:
            producers = self.graph.predecessors(task_id)
            if not producers:
                sim.process(self._run_task(task_id))
                continue
            remaining = [len(producers)]

            def on_producer_done(
                _event: Event,
                task_id: str = task_id,
                remaining: list = remaining,
            ) -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    sim.process(self._run_task(task_id))

            for producer in producers:
                self._done[producer].add_callback(on_producer_done)
        return tile_done

    # ------------------------------------------------------------- helpers
    def _stream_id(self, task_id: str) -> int:
        """Deterministic memory-interleave stream for a task."""
        return self.tile_id * 131 + self._task_index[task_id]

    def _preferred_island(self, task_id: str) -> typing.Optional[int]:
        """Island holding the largest share of the task's chained input."""
        library = self.system.library
        bytes_by_island: dict[int, float] = {}
        for producer in self.graph.predecessors(task_id):
            if producer not in self.locations:
                raise SimulationError(
                    f"producer {producer!r} finished without a recorded location"
                )
            location = self.locations[producer]
            if location is None:  # producer ran in software; data is in DRAM
                continue
            island_idx, _slot = location
            nbytes = self.graph.edge_bytes(
                self.graph.edge(producer, task_id), library
            )
            bytes_by_island[island_idx] = (
                bytes_by_island.get(island_idx, 0.0) + nbytes
            )
        if not bytes_by_island:
            return None
        return max(sorted(bytes_by_island), key=lambda i: bytes_by_island[i])

    def _trace(
        self,
        start: float,
        kind: str,
        actor: str,
        label: str,
        ref: str = "",
        args: typing.Optional[typing.Mapping[str, typing.Any]] = None,
    ) -> None:
        tracer = self._tracer
        if tracer is not None:
            tracer.span(start, self.system.sim.now, actor, kind, label, ref, args)

    def _tag(self, task_id: str) -> str:
        """Correlation id of one task of this tile (``tenant1.t3.conv0``)."""
        tag = self._tags.get(task_id)
        if tag is None:
            prefix = f"{self.tenant}." if self.tenant else ""
            tag = f"{prefix}t{self.tile_id}.{task_id}"
            self._tags[task_id] = tag
        return tag

    def _trace_task(
        self, start: float, actor: str, task_id: str, producers
    ) -> None:
        """Record the task's aggregate span carrying the DAG edges."""
        if self._tracer is not None:
            self._trace(
                start,
                "task",
                actor,
                task_id,
                self._tag(task_id),
                {
                    "deps": [self._tag(p) for p in producers],
                    "tenant": self.tenant,
                },
            )

    # --------------------------------------------------------- task process
    def _run_task(self, task_id: str):
        system = self.system
        graph = self.graph
        library = system.library
        task = graph.task(task_id)
        producers = graph.predecessors(task_id)
        tag = self._tag(task_id)

        # 1. Producers are already done — :meth:`run` spawns this
        # process from the last producer's completion callback.

        # 2. Allocate an ABB (may queue inside the ABC).  When every ABB
        # of the type is out of service the ABC answers with the
        # software-fallback sentinel instead of a grant.
        requested_at = system.sim.now
        grant = yield system.abc.request(
            task.abb_type, preferred_island=self._preferred_island(task_id)
        )
        if grant is SOFTWARE_FALLBACK:
            yield from self._run_task_software(
                task_id, task, producers, tag, requested_at
            )
            return
        assert isinstance(grant, Grant)
        self.locations[task_id] = (grant.island_index, grant.slot)
        island = system.islands[grant.island_index]
        if self._tracer is not None:
            actor = self._tracer.name(
                ("island{}.slot{}", grant.island_index, grant.slot)
            )
        else:
            actor = ""
        if system.sim.now > requested_at:
            self._trace(requested_at, "alloc_wait", actor, tag, tag)

        # 3. Gather operands in parallel.
        input_events = []
        mem_bytes = graph.memory_input_bytes(task_id, library)
        if mem_bytes > 0:
            input_events.append(
                system.memory_to_island(
                    grant.island_index,
                    grant.slot,
                    mem_bytes,
                    self._stream_id(task_id),
                    tag,
                )
            )
        for producer in producers:
            nbytes = graph.edge_bytes(graph.edge(producer, task_id), library)
            location = self.locations[producer]
            if location is None:
                # Producer ran in software; its results sit in shared
                # memory and stream in like any memory operand.
                input_events.append(
                    system.memory_to_island(
                        grant.island_index,
                        grant.slot,
                        nbytes,
                        self._stream_id(producer),
                        tag,
                    )
                )
                continue
            src_island, src_slot = location
            if src_island == grant.island_index:
                input_events.append(
                    island.chain_local(src_slot, grant.slot, nbytes, tag)
                )
            else:
                input_events.append(
                    system.island_to_island(
                        src_island,
                        src_slot,
                        grant.island_index,
                        grant.slot,
                        nbytes,
                        tag,
                    )
                )
        if input_events:
            gather_start = system.sim.now
            yield AllOf(system.sim, input_events)
            self._trace(gather_start, "gather", actor, tag, tag)

        # 4. Compute.
        compute_start = system.sim.now
        yield island.compute(grant.slot, task.invocations)
        if self._tracer is not None:
            self._trace(
                compute_start,
                "compute",
                actor,
                tag,
                tag,
                {
                    "conflict": island.spm_groups[grant.slot].conflict_penalty(),
                    "invocations": task.invocations,
                },
            )

        # 5. Write back sink outputs, then release the block.
        if not graph.successors(task_id):
            out_bytes = graph.task_output_bytes(task_id, library)
            writeback_start = system.sim.now
            yield system.island_to_memory(
                grant.island_index,
                grant.slot,
                out_bytes,
                self._stream_id(task_id),
                tag,
            )
            self._trace(writeback_start, "writeback", actor, tag, tag)
        system.abc.release(grant, task.invocations)
        self._trace_task(requested_at, actor, task_id, producers)
        self._done[task_id].succeed(task_id)

    # ---------------------------------------------------- software fallback
    def _run_task_software(
        self, task_id: str, task, producers, tag: str, task_start: float
    ):
        """Run one task on a host core (no hardware composition exists).

        The core fetches every operand from shared memory (chained
        producers' outputs were either written back by a software
        producer or are drained from the producer island's SPM first),
        executes the calibrated software implementation, and writes all
        results back so any consumer can read them from DRAM.
        """
        system = self.system
        graph = self.graph
        library = system.library
        stats = system.fault_stats
        stats.fallback_tasks += 1
        if not self.used_fallback:
            self.used_fallback = True
            stats.fallback_tiles += 1
        self.locations[task_id] = None

        requested_at = system.sim.now
        yield system.fallback_cores.request()
        actor = "core.sw"
        if system.sim.now > requested_at:
            self._trace(requested_at, "alloc_wait", actor, tag, tag)

        # Gather operands: spill chained data parked in producer SPMs to
        # memory, then charge the core's own memory reads.
        gather_start = system.sim.now
        spill_events = []
        read_bytes = graph.memory_input_bytes(task_id, library)
        for producer in producers:
            nbytes = graph.edge_bytes(graph.edge(producer, task_id), library)
            read_bytes += nbytes
            location = self.locations[producer]
            if location is not None:
                src_island, src_slot = location
                spill_events.append(
                    system.island_to_memory(
                        src_island, src_slot, nbytes, self._stream_id(producer), tag
                    )
                )
        if spill_events:
            yield AllOf(system.sim, spill_events)
        if read_bytes > 0:
            yield system.memory.access(read_bytes, self._stream_id(task_id), tag)
        if system.sim.now > gather_start:
            self._trace(gather_start, "gather", actor, tag, tag)

        # Compute in software at the calibrated per-invocation cost.
        compute_start = system.sim.now
        cycles = system.fallback_model.task_cycles(
            task.abb_type, task.invocations
        )
        yield system.sim.delay(cycles)
        system.energy.charge(
            "sw_fallback", system.fallback_model.energy_nj(cycles)
        )
        self._trace(compute_start, "sw_compute", actor, tag, tag)

        # Publish results to shared memory for downstream consumers (or
        # as the final output when this task is a sink).
        out_bytes = graph.task_output_bytes(task_id, library)
        if out_bytes > 0:
            writeback_start = system.sim.now
            yield system.memory.access(out_bytes, self._stream_id(task_id), tag)
            self._trace(writeback_start, "writeback", actor, tag, tag)
        system.fallback_cores.release()
        self._trace_task(task_start, actor, task_id, producers)
        self._done[task_id].succeed(task_id)
