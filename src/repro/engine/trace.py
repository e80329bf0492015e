"""Structured execution tracing.

A :class:`Tracer` collects timestamped spans — ABB compute, DMA
transfers, NoC crossings, allocation waits — so a run can be inspected
after the fact: per-actor busy summaries, bottleneck ranking, and a
text Gantt chart for small runs.  Tracing is opt-in (pass a tracer to
:class:`~repro.sim.system.SystemModel`) and has no effect on timing.

Spans carry two optional pieces of structure used by the observability
subsystem (:mod:`repro.obs`):

* ``ref`` — a correlation id tying a span to the task or request that
  caused it (``"t3.conv0"`` for tile 3's ``conv0`` task,
  ``"tenant1.t5.div0"`` under the serving frontend).  Every span a task
  generates anywhere in the system — ABC wait, DMA, mesh hops, DRAM —
  shares the task's ref, which is what lets the critical-path analyzer
  walk one task's time breakdown across components.
* ``args`` — a small mapping of structured detail (byte counts, producer
  refs, SPM conflict fraction) exported verbatim into Perfetto traces.
"""

from __future__ import annotations

import math
import typing

from repro.errors import ConfigError

_INF = float("inf")


class Tracer:
    """Collects timestamped spans during a simulation run.

    A trace is one list, :attr:`spans`, of plain span tuples ``(start,
    end, actor, kind, label, ref, args)`` in record order, so a traced
    simulation never pays per-span object construction inside the
    event loop.
    """

    __slots__ = ("spans", "_names")

    def __init__(self) -> None:
        # Span tuples in record order; the one store of the trace.
        self.spans: list = []
        # Interned actor and label strings, by key (see name()).
        self._names: dict = {}

    def record(
        self,
        start: float,
        end: float,
        actor: typing.Any,
        kind: str,
        label: typing.Any = "",
        ref: str = "",
        args: typing.Optional[typing.Mapping[str, typing.Any]] = None,
        # Default-argument cell: record() runs once per span on traced
        # runs, and it turns a global lookup into a local load.
        _inf: float = _INF,
    ) -> None:
        """Append one span.

        ``actor`` and ``label`` are strings or :meth:`name` keys, so a
        hot-path site formats each distinct name once.  A span whose
        times are not finite or end before they start raises
        :class:`~repro.errors.ConfigError`.
        """
        # One chained comparison accepts exactly the valid spans: NaN
        # makes every comparison false, +/-inf fall outside the open
        # bounds, and ordering is checked in the same expression.  Only
        # a rejected span pays for telling the two failures apart.
        if not (-_inf < start <= end < _inf):
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ConfigError(
                    f"span times must be finite, got [{start}, {end}]"
                )
            raise ConfigError(f"span ends before it starts ({start} > {end})")
        if actor.__class__ is not str:
            actor = self.name(actor)
        if label.__class__ is not str:
            label = self.name(label)
        self.spans.append((start, end, actor, kind, label, ref, args))

    def name(self, key: typing.Any) -> str:
        """The interned string for ``key``: a byte count becomes
        ``"<n>B"``, a tuple ``(template, *fields)`` becomes
        ``template.format(*fields)``."""
        text = self._names.get(key)
        if text is None:
            if key.__class__ is tuple:
                text = key[0].format(*key[1:])
            else:
                text = f"{key:g}B"
            self._names[key] = text
        return text

    # ---------------------------------------------------------------- query
    def actors(self) -> list:
        """Distinct actors, in first-seen order."""
        return list(dict.fromkeys(span[2] for span in self.spans))

    def end_time(self) -> float:
        """Latest span end (0 when empty)."""
        return max((span[1] for span in self.spans), default=0.0)

    # -------------------------------------------------------------- summary
    def busy_cycles(self) -> dict[str, float]:
        """Total span duration per actor (overlaps counted twice)."""
        out: dict[str, float] = {}
        for start, end, actor, *_ in self.spans:
            out[actor] = out.get(actor, 0.0) + (end - start)
        return out

    def kind_cycles(self) -> dict[str, float]:
        """Total span duration per kind."""
        out: dict[str, float] = {}
        for start, end, _actor, kind, *_ in self.spans:
            out[kind] = out.get(kind, 0.0) + (end - start)
        return out

    def hotspots(self, top: int = 5) -> list:
        """The ``top`` busiest actors as (actor, cycles) pairs.

        Ties are broken by actor name so the ranking is deterministic
        regardless of record insertion order.
        """
        busy = self.busy_cycles()
        return sorted(busy.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    # ---------------------------------------------------------------- gantt
    def gantt(
        self,
        width: int = 72,
        actors: typing.Optional[typing.Sequence[str]] = None,
        kind_symbols: typing.Optional[typing.Mapping[str, str]] = None,
    ) -> str:
        """Render a text Gantt chart of the trace.

        Each actor gets one row of ``width`` character cells spanning
        [0, end_time]; a cell shows the symbol of the span kind covering
        it ('#' by default, '.' when idle).
        """
        if width < 10:
            raise ConfigError("gantt width must be >= 10")
        end = self.end_time()
        if end <= 0:
            return "(empty trace)"
        symbols = dict(kind_symbols or {})
        chosen = list(actors) if actors is not None else self.actors()
        label_width = max((len(a) for a in chosen), default=0) + 1
        scale = width / end
        # One pass over the spans fills every chosen actor's row, so
        # rendering is O(spans), not O(actors x spans).
        cells_by_actor: dict[str, list] = {a: ["."] * width for a in chosen}
        for start, end, actor, kind, *_ in self.spans:
            cells = cells_by_actor.get(actor)
            if cells is None:
                continue
            lo = min(width - 1, int(start * scale))
            hi = min(width, max(lo + 1, int(end * scale)))
            symbol = symbols.get(kind, "#")
            for i in range(lo, hi):
                cells[i] = symbol
        rows = [
            f"{actor:<{label_width}}|{''.join(cells_by_actor[actor])}|"
            for actor in chosen
        ]
        # Right-align the end-time label after the "0" origin mark; the
        # padding is clamped at one space so a label wider than the chart
        # (very large end times) cannot drive it negative and collapse
        # the header.
        end_label = str(int(end))
        padding = max(1, width - len(end_label) - 1)
        header = f"{'':<{label_width}} 0{' ' * padding}{end_label}"
        return "\n".join([header] + rows)

    def __len__(self) -> int:
        return len(self.spans)
