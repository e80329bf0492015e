"""Chrome/Perfetto trace-event export for :class:`~repro.engine.trace.Tracer`.

Converts a span trace into the JSON trace-event format that
``ui.perfetto.dev`` (and ``chrome://tracing``) load directly: one
complete event (``"ph": "X"``) per span, grouped into processes by the
actor's top-level component (``island0``, ``mesh``, ``mem``, ``core``)
and into threads by full actor name, with metadata events naming both.

Timestamps are simulated cycles emitted as trace-event microsecond
ticks, so one viewer microsecond equals one cycle — durations read
directly in cycles.

Every span's correlation id and structured args are exported under
``args``, which is what makes a task's path through ABC wait, DMA, mesh
and DRAM traceable in the viewer (search for the ``ref``).
"""

from __future__ import annotations

import json
import math
import typing

from repro.engine.trace import Tracer
from repro.errors import ConfigError

#: Format version stamped into the exported document's ``otherData``.
TRACE_SCHEMA_VERSION = 1

#: Keys every complete ("X") trace event must carry — the contract the
#: CI observability job validates emitted traces against.
REQUIRED_EVENT_KEYS = ("ph", "ts", "dur", "pid", "tid", "name")


def _process_of(actor: str) -> str:
    """Process grouping: the actor's top-level component."""
    return actor.split(".", 1)[0] if actor else "trace"


def trace_events(tracer: Tracer) -> list[dict]:
    """Convert a tracer's spans into trace-event dicts.

    Metadata events (process/thread names) come first, then one complete
    event per span in record order.  Pid/tid assignment is independent
    of record order (sorted by name), so two traces of the same run are
    byte-identical.

    Each span is checked as its event is built, so every event returned
    satisfies :func:`validate_events`: a span that does not lie in
    ``0 <= start <= end < inf`` or has an empty kind raises
    :class:`~repro.errors.ConfigError` naming its index.
    """
    spans = tracer.spans
    actors = sorted({span[2] for span in spans})
    processes = sorted({_process_of(actor) for actor in actors})
    pid_of = {process: index + 1 for index, process in enumerate(processes)}
    tid_of = {actor: index + 1 for index, actor in enumerate(actors)}

    events: list[dict] = []
    for process in processes:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid_of[process],
                "tid": 0,
                "args": {"name": process},
            }
        )
    for actor in actors:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid_of[_process_of(actor)],
                "tid": tid_of[actor],
                "args": {"name": actor},
            }
        )
    inf = math.inf
    for index, span in enumerate(spans):
        start, end, actor, kind, label, ref, span_args = span
        # NaN fails every comparison, so one chain rejects it too.
        if not (0.0 <= start <= end < inf) or not kind:
            raise ConfigError(
                f"span {index} cannot be exported: {span!r} needs "
                f"0 <= start <= end < inf and a non-empty kind"
            )
        args: dict = {}
        if ref:
            args["ref"] = ref
        if label:
            args["label"] = label
        if span_args:
            for key, value in span_args.items():
                args[str(key)] = value
        events.append(
            {
                "ph": "X",
                "name": f"{kind}:{ref}" if ref else kind,
                "cat": kind,
                "ts": start,
                "dur": end - start,
                "pid": pid_of[_process_of(actor)],
                "tid": tid_of[actor],
                "args": args,
            }
        )
    return events


def validate_events(events: typing.Sequence[typing.Mapping]) -> None:
    """Check trace events against the trace-event schema contract.

    Every complete event must carry :data:`REQUIRED_EVENT_KEYS` with
    finite, non-negative ``ts``/``dur``; raises
    :class:`~repro.errors.ConfigError` on the first violation.
    """
    for index, event in enumerate(events):
        if event.get("ph") == "M":
            continue
        missing = [key for key in REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            raise ConfigError(
                f"trace event {index} missing keys {missing}: {dict(event)}"
            )
        for key in ("ts", "dur"):
            value = event[key]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(
                    f"trace event {index} has non-finite {key}: {value!r}"
                )
            if value < 0:
                raise ConfigError(
                    f"trace event {index} has negative {key}: {value!r}"
                )
        if not event["name"]:
            raise ConfigError(f"trace event {index} has an empty name")


def trace_document(tracer: Tracer, note: str = "") -> dict:
    """Build the full Perfetto-loadable JSON document for a trace."""
    return {
        "traceEvents": trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "simulated cycles as microsecond ticks",
            "spans": len(tracer),
            "note": note,
        },
    }


def write_trace(tracer: Tracer, path: str, note: str = "") -> dict:
    """Write a Perfetto-loadable trace JSON; returns the document."""
    document = trace_document(tracer, note)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document


def load_trace(path: str) -> dict:
    """Read and validate a document written by :func:`write_trace`."""
    with open(path) as handle:
        document = json.load(handle)
    version = document.get("otherData", {}).get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported trace schema version {version!r} "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    if "traceEvents" not in document:
        raise ConfigError(f"{path!r} is not a trace-event document")
    validate_events(document["traceEvents"])
    return document
