"""The mesh NoC timing model.

Each directed link between adjacent mesh stops is a bandwidth server.  A
transfer follows dimension-ordered (XY) routing, occupies every link on
its path, and pays one router-pipeline latency per hop.  Wormhole
pipelining is approximated by completing when the *slowest* link on the
path has drained the payload — links are charged in parallel, so a
congested link delays the message but uncongested links do not serialize
behind each other.  A transfer reserves its links at issue; a short
pipeline (path-drain join, router latency, arrival) does the rest.
"""

from __future__ import annotations

import math
import typing

from repro.engine import DELAY, HOOK, BandwidthServer, Event, Pipeline, Simulator
from repro.engine.trace import Tracer
from repro.errors import ConfigError
from repro.noc.topology import MeshTopology, Node
from repro.power.aggregate import EnergyAccount

#: Router pipeline latency per hop, cycles.
ROUTER_LATENCY = 2.0

#: Default mesh link bandwidth, bytes/cycle.
DEFAULT_LINK_BYTES_PER_CYCLE = 16.0

#: NoC dynamic energy, pJ per byte per hop (router + link).
NOC_ENERGY_PJ_PER_BYTE_HOP = 1.1

#: Header/flow-control overhead per packet when segmentation is on.
PACKET_HEADER_BYTES = 8.0


class MeshNoC:
    """A 2D mesh with XY routing and per-link contention.

    By default transfers are fluid (one message occupies its path until
    its payload drains).  Passing ``segment_bytes`` segments messages
    into packets of that size — the paper's traffic moves at cache-block
    (64-byte) or half-block (32-byte) granularity — each paying a header
    overhead, which exposes the Section 5.3 effect that narrow channels
    waste width on packetization.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        link_bytes_per_cycle: float = DEFAULT_LINK_BYTES_PER_CYCLE,
        energy: typing.Optional[EnergyAccount] = None,
        segment_bytes: typing.Optional[float] = None,
        fault_injector: typing.Optional[typing.Any] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        if link_bytes_per_cycle <= 0:
            raise ConfigError("mesh link bandwidth must be positive")
        if segment_bytes is not None and segment_bytes <= PACKET_HEADER_BYTES:
            raise ConfigError(
                f"segment size must exceed the {PACKET_HEADER_BYTES}-byte header"
            )
        self.sim = sim
        self.topology = topology
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self.energy = energy if energy is not None else EnergyAccount()
        self.segment_bytes = segment_bytes
        # Fault injection: a deterministic subset of links pays a
        # multiplied per-hop router latency (see repro.faults).
        self.fault_injector = fault_injector
        self.tracer = tracer
        # After the slowest link drains: a same-time entry for the path
        # join, the router latency, then (traced) the arrival span.
        # ``run.ctx`` is ``(router_cycles, issue_time, src, dst, hops)``.
        self._tail = ((DELAY, 0.0, None), (HOOK, self._router_latency, None))
        if tracer is not None:
            self._tail += ((HOOK, self._trace_arrival, None),)
        self._links: dict[tuple[tuple[int, int], tuple[int, int]], BandwidthServer] = {}
        self.total_transfers = 0
        self.total_packets = 0
        self.total_byte_hops = 0.0

    # ---------------------------------------------------------------- links
    def _link(
        self, src: tuple[int, int], dst: tuple[int, int]
    ) -> BandwidthServer:
        key = (src, dst)
        if key not in self._links:
            self._links[key] = BandwidthServer(
                self.sim,
                bytes_per_cycle=self.link_bytes_per_cycle,
                latency=0.0,
                name=f"link{src}->{dst}",
            )
        return self._links[key]

    @staticmethod
    def route(src: Node, dst: Node) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """XY route: walk X first, then Y.  Returns the directed link list."""
        path = []
        x, y = src.x, src.y
        while x != dst.x:
            nxt = x + (1 if dst.x > x else -1)
            path.append(((x, y), (nxt, y)))
            x = nxt
        while y != dst.y:
            nxt = y + (1 if dst.y > y else -1)
            path.append(((x, y), (x, nxt)))
            y = nxt
        return path

    # ------------------------------------------------------------ transfers
    def transfer(
        self, src: Node, dst: Node, nbytes: float, ref: str = ""
    ) -> Event:
        """Send ``nbytes`` from ``src`` to ``dst``; event fires on arrival."""
        if not (0.0 <= nbytes < math.inf):
            raise ConfigError(
                f"transfer size must be finite and non-negative, got {nbytes!r}"
            )
        path = self.route(src, dst)
        hops = len(path)
        self.total_transfers += 1
        if hops == 0 or nbytes == 0:
            self.energy.charge(
                "noc", NOC_ENERGY_PJ_PER_BYTE_HOP * nbytes * hops * 1e-3
            )
            done = Event(self.sim)
            done.succeed(nbytes)
            return done

        wire_bytes = nbytes
        if self.segment_bytes is not None:
            payload = self.segment_bytes - PACKET_HEADER_BYTES
            packets = math.ceil(nbytes / payload)
            wire_bytes = nbytes + packets * PACKET_HEADER_BYTES
            self.total_packets += packets
        self.total_byte_hops += wire_bytes * hops
        self.energy.charge(
            "noc", NOC_ENERGY_PJ_PER_BYTE_HOP * wire_bytes * hops * 1e-3
        )

        # Reserve every link on the path at issue time, exactly as the
        # event-based model issued all link transfers before its process
        # started.  An uncontended link answers with its drain time in
        # closed form (no event, no heap entry); a contended link drops
        # to the exact queued model and keeps its completion entry.  The
        # transfer completes when the slowest link drains — on ties the
        # last link reserved wins, matching the barrier's firing order.
        slowest_done = -1.0
        slowest_event: typing.Optional[Event] = None
        for a, b in path:
            link = self._link(a, b)
            result = link.transfer_analytic(wire_bytes)
            done = link.last_done
            if done >= slowest_done:
                slowest_done = done
                slowest_event = None if result.__class__ is float else result

        router_cycles = ROUTER_LATENCY * hops
        injector = self.fault_injector
        if injector is not None and injector.spec.noc_degrade_fraction > 0.0:
            degraded_hops = sum(
                1 for a, b in path if injector.link_degraded(a, b)
            )
            if degraded_hops:
                injector.stats.noc_degraded_transfers += 1
                router_cycles += (
                    ROUTER_LATENCY
                    * (injector.spec.noc_degrade_factor - 1.0)
                    * degraded_hops
                )

        return Pipeline(
            self.sim,
            self._tail,
            nbytes,
            ref,
            (router_cycles, self.sim.now, src, dst, hops),
            start=slowest_done if slowest_event is None else slowest_event,
        ).event

    def _router_latency(self, run: Pipeline) -> float:
        return run.sim.now + run.ctx[0]

    def _trace_arrival(self, run: Pipeline) -> None:
        _router_cycles, issued, src, dst, hops = run.ctx
        self.tracer.span(
            issued,
            run.sim.now,
            ("mesh.{},{}->{},{}", src.x, src.y, dst.x, dst.y),
            "noc",
            ("{:g}B/{}h", run.nbytes, hops),
            run.ref,
        )

    # ------------------------------------------------------------- metrics
    def max_link_utilization(self, elapsed: float) -> float:
        """Busy fraction of the most loaded link (the hotspot)."""
        if not self._links:
            return 0.0
        return max(link.utilization(elapsed) for link in self._links.values())

    def mean_link_utilization(self, elapsed: float) -> float:
        """Average busy fraction over links that saw traffic."""
        if not self._links:
            return 0.0
        values = [link.utilization(elapsed) for link in self._links.values()]
        return sum(values) / len(values)
