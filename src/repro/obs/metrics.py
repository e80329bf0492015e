"""Hierarchically named metrics registry with JSON and Prometheus export.

A metric is a name, a kind and the values sampled when it was
registered.  The builders (:func:`system_metrics`, :func:`serve_metrics`)
run after a simulation ends and sample what the run already kept —
:mod:`repro.engine.stats` histograms,
:class:`~repro.engine.stats.UtilizationTracker` levels, bandwidth-server
byte totals and plain numbers — so nothing is recorded twice and
nothing runs during simulation: a run that never builds a registry pays
nothing for it.

Names are dot-separated hierarchies (``island0.dma.bytes``,
``abc.alloc.wait_cycles``, ``serve.t1.shed``); each segment is
restricted to ``[A-Za-z0-9_-]`` so every name maps cleanly onto both
JSON keys and Prometheus metric names (dots become underscores, with a
``repro_`` prefix).

Exports are versioned (:data:`METRICS_SCHEMA_VERSION`) and round-trip:
:meth:`MetricsRegistry.from_json_dict` rebuilds the same metrics from
:meth:`MetricsRegistry.to_json_dict` output.
"""

from __future__ import annotations

import json
import re
import typing

from repro.engine.stats import Histogram as StatsHistogram
from repro.engine.stats import UtilizationTracker
from repro.errors import ConfigError

#: Format version stamped into every metrics export.
METRICS_SCHEMA_VERSION = 1

#: Valid metric-name segment (between dots).
_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")

#: Characters Prometheus forbids in metric names.
_PROM_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Percentiles exported for histogram metrics.
HISTOGRAM_PERCENTILES = (50.0, 95.0, 99.0)

#: The value components each built-in kind carries, as the registry's
#: registration methods write them.  A snapshot entry of one of these
#: kinds must have exactly these; other kinds export as gauges.
_KIND_COMPONENTS = {
    "counter": {"value"},
    "gauge": {"value"},
    "time_weighted_gauge": {"average", "peak"},
    "histogram": {"count", "mean", "min", "max"}
    | {f"p{p:g}" for p in HISTOGRAM_PERCENTILES},
}


def _check_name(name: str) -> str:
    if not isinstance(name, str):
        raise ConfigError(f"metric name must be a string, got {name!r}")
    if not name:
        raise ConfigError("metric name must be non-empty")
    for segment in name.split("."):
        if not _SEGMENT_RE.match(segment):
            raise ConfigError(
                f"bad metric name {name!r}: segment {segment!r} must match "
                f"[A-Za-z0-9_-]+"
            )
    return name


def _histogram_values(hist: StatsHistogram) -> dict[str, float]:
    """Count/mean/min/max plus the :data:`HISTOGRAM_PERCENTILES` order
    statistics of ``hist`` (zeros when it is empty)."""
    if hist.count == 0:
        return dict.fromkeys(
            ("count", "mean", "min", "max")
            + tuple(f"p{p:g}" for p in HISTOGRAM_PERCENTILES),
            0.0,
        )
    out = {
        "count": float(hist.count),
        "mean": hist.mean,
        "min": hist.min,
        "max": hist.max,
    }
    out.update((f"p{p:g}", hist.percentile(p)) for p in HISTOGRAM_PERCENTILES)
    return out


class Metric:
    """One named metric: a kind and its sampled values.

    ``kind`` is ``counter`` (a monotonically increasing total),
    ``gauge`` (a level or a derived number), ``time_weighted_gauge``
    (``average`` over the run and ``peak``) or ``histogram``
    (count/mean/min/max and percentiles).  ``components`` names the
    value keys in order, which is the order the metric flattens in.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        values: typing.Mapping[str, float],
        help: str = "",
    ) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help
        self._values = dict(values)
        self.components = tuple(self._values)

    def keys(self) -> tuple:
        """Flattened names: the bare name for a single-value metric,
        else ``name.component`` per component."""
        if self.components == ("value",):
            return (self.name,)
        return tuple(f"{self.name}.{c}" for c in self.components)

    def values(self) -> dict[str, float]:
        """The sampled values, keyed by component name."""
        return dict(self._values)


class MetricsRegistry:
    """A namespace of metrics with versioned export.

    Registration order is preserved; names are unique, and so are the
    flattened keys of :meth:`collect`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._key_owner: dict[str, str] = {}

    # --------------------------------------------------------- registration
    def register(self, metric: Metric) -> Metric:
        """Add one metric.

        Rejects a duplicate name, and a metric whose flattened key
        another metric already produces (counter ``lat.p99`` next to
        histogram ``lat``), which :meth:`collect` would otherwise
        silently overwrite.
        """
        if metric.name in self._metrics:
            raise ConfigError(f"duplicate metric name {metric.name!r}")
        keys = metric.keys()
        for key in keys:
            if key in self._key_owner:
                raise ConfigError(
                    f"metric key collision: {key!r} of {metric.name!r} is "
                    f"already a key of {self._key_owner[key]!r}; rename one "
                    f"of them"
                )
        self._metrics[metric.name] = metric
        self._key_owner.update(dict.fromkeys(keys, metric.name))
        return metric

    def counter(self, name: str, value: float, help: str = "") -> Metric:
        """Register and return a counter holding ``value``."""
        return self.register(Metric(name, "counter", {"value": float(value)}, help))

    def gauge(self, name: str, value: float, help: str = "") -> Metric:
        """Register and return a gauge holding ``value``."""
        return self.register(Metric(name, "gauge", {"value": float(value)}, help))

    def time_weighted_gauge(
        self,
        name: str,
        tracker: UtilizationTracker,
        elapsed: float,
        help: str = "",
    ) -> Metric:
        """Register and return the time-weighted average of ``tracker``'s
        level over [0, ``elapsed``] and its peak."""
        values = {
            "average": tracker.average(elapsed),
            "peak": float(tracker.peak),
        }
        return self.register(Metric(name, "time_weighted_gauge", values, help))

    def histogram(
        self, name: str, histogram: StatsHistogram, help: str = ""
    ) -> Metric:
        """Register and return a summary of ``histogram``."""
        return self.register(
            Metric(name, "histogram", _histogram_values(histogram), help)
        )

    # --------------------------------------------------------------- access
    def names(self) -> list[str]:
        """All metric names, in registration order."""
        return list(self._metrics)

    def get(self, name: str) -> Metric:
        """Look one metric up by name."""
        if name not in self._metrics:
            raise ConfigError(f"unknown metric {name!r}")
        return self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def collect(self) -> dict[str, float]:
        """Flatten every metric into ``name.component -> value``.

        Single-component metrics (counters, gauges) flatten to their bare
        name; multi-component ones get a suffix per component
        (``abc.alloc.wait_cycles.p99``).
        """
        out: dict[str, float] = {}
        for metric in self._metrics.values():
            out.update(zip(metric.keys(), metric.values().values()))
        return out

    # --------------------------------------------------------------- export
    def to_json_dict(self) -> dict:
        """Versioned JSON-safe snapshot of every metric."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "metrics": [
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "values": metric.values(),
                }
                for metric in self._metrics.values()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: typing.Mapping) -> "MetricsRegistry":
        """Rebuild a registry from a JSON snapshot.

        Anything but a snapshot object with well-formed metric entries
        raises :class:`ConfigError`.
        """
        if not isinstance(data, typing.Mapping):
            raise ConfigError("metrics snapshot must be a JSON object")
        version = data.get("schema_version")
        if version != METRICS_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported metrics schema version {version!r} "
                f"(expected {METRICS_SCHEMA_VERSION})"
            )
        entries = data.get("metrics", [])
        if not isinstance(entries, list):
            raise ConfigError("metrics snapshot 'metrics' must be a list")
        registry = cls()
        for entry in entries:
            if not isinstance(entry, typing.Mapping):
                raise ConfigError(f"serialized metric must be an object: {entry!r}")
            missing = {"name", "kind", "values"} - set(entry)
            if missing:
                raise ConfigError(
                    f"serialized metric missing fields: {sorted(missing)}"
                )
            try:
                values = {str(k): float(v) for k, v in entry["values"].items()}
            except (ValueError, TypeError, AttributeError) as err:
                raise ConfigError(
                    f"serialized metric {entry['name']!r} field 'values': {err}"
                ) from None
            kind = entry["kind"]
            expected = _KIND_COMPONENTS.get(kind) if isinstance(kind, str) else None
            if expected is not None and set(values) != expected:
                raise ConfigError(
                    f"serialized {kind} {entry['name']!r} must have values "
                    f"{sorted(expected)}, got {sorted(values)}"
                )
            registry.register(
                Metric(entry["name"], kind, values, entry.get("help", ""))
            )
        return registry

    def to_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format.

        Dots become underscores under a ``repro_`` prefix; histograms are
        exposed as summaries (quantile series plus ``_sum``/``_count``),
        time-weighted gauges as an average gauge plus a ``_peak`` gauge.
        """
        lines: list[str] = []
        for metric in self._metrics.values():
            base = "repro_" + _PROM_SANITIZE_RE.sub("_", metric.name)
            values = metric.values()
            if metric.kind == "counter":
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} counter")
                lines.append(f"{base} {values['value']:g}")
            elif metric.kind == "histogram":
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} summary")
                for p in HISTOGRAM_PERCENTILES:
                    quantile = p / 100.0
                    lines.append(
                        f'{base}{{quantile="{quantile:g}"}} '
                        f"{values[f'p{p:g}']:g}"
                    )
                lines.append(f"{base}_sum {values['mean'] * values['count']:g}")
                lines.append(f"{base}_count {values['count']:g}")
            elif metric.kind == "time_weighted_gauge":
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base} {values['average']:g}")
                lines.append(f"# TYPE {base}_peak gauge")
                lines.append(f"{base}_peak {values['peak']:g}")
            else:  # gauges, and any kind read back from a snapshot
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} gauge")
                for component, value in sorted(values.items()):
                    suffix = "" if component == "value" else f"_{component}"
                    lines.append(f"{base}{suffix} {value:g}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        """Write the JSON snapshot to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "MetricsRegistry":
        """Read a snapshot written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_json_dict(json.load(handle))


# ---------------------------------------------------------------- builders
def system_metrics(
    system: typing.Any, elapsed: float
) -> MetricsRegistry:
    """Registry over a finished :class:`~repro.sim.system.SystemModel` run.

    Covers every layer the simulator models: per-island DMA/NoC-interface
    byte counters and ABB occupancy, the ABC's allocation histograms and
    grant counters, mesh totals, per-controller memory traffic, and the
    energy account.
    """
    registry = MetricsRegistry()
    for island in system.islands:
        prefix = f"island{island.island_id}"
        registry.counter(
            f"{prefix}.dma.bytes", island.dma.total_bytes,
            help="bytes through the island DMA engine",
        )
        registry.counter(
            f"{prefix}.dma.busy_cycles", island.dma.busy_cycles,
            help="cycles the DMA channel was occupied",
        )
        registry.counter(f"{prefix}.noc_in.bytes", island.noc_in.total_bytes)
        registry.counter(f"{prefix}.noc_out.bytes", island.noc_out.total_bytes)
        registry.counter(
            f"{prefix}.spm.bytes_read",
            sum(group.bytes_read for group in island.spm_groups),
        )
        registry.counter(
            f"{prefix}.spm.bytes_written",
            sum(group.bytes_written for group in island.spm_groups),
        )
        registry.gauge(
            f"{prefix}.failed_slots", float(island.failed_slot_count)
        )
        registry.time_weighted_gauge(
            f"{prefix}.abb.busy", island.abb_tracker, elapsed,
            help="busy ABB count (time-weighted average and peak)",
        )
    abc = system.abc
    registry.histogram(
        "abc.alloc.wait_cycles", abc.wait_cycles,
        help="cycles requests queued in the ABC before a grant",
    )
    registry.histogram(
        "abc.alloc.service_cycles", abc.service_cycles,
        help="grant-to-release hold time per ABB allocation",
    )
    registry.counter("abc.alloc.grants", float(abc.wait_cycles.count))
    registry.counter("abc.alloc.queued", float(abc.total_queued))
    registry.counter("abc.alloc.fallbacks", float(abc.fallback_grants))
    registry.counter("mesh.transfers", float(system.noc.total_transfers))
    registry.counter("mesh.byte_hops", system.noc.total_byte_hops)
    for controller in system.memory.controllers:
        registry.counter(
            f"mem.mc{controller.index}.bytes", controller.total_bytes
        )
        registry.gauge(
            f"mem.mc{controller.index}.utilization",
            controller.utilization(elapsed),
        )
    registry.gauge(
        "energy.total_nj", system.energy.total_nj(elapsed),
        help="platform energy over the run (static + dynamic)",
    )
    return registry


def serve_metrics(result: typing.Any) -> MetricsRegistry:
    """Per-tenant registry over a :class:`~repro.serve.slo.ServeResult`.

    Names follow ``serve.<tenant>.<metric>`` with aggregate rollups under
    ``serve.*`` — the registry the ``repro serve --metrics-out`` flag
    dumps alongside the SLO JSON.
    """
    registry = MetricsRegistry()
    for tenant in result.tenants:
        prefix = f"serve.{tenant.tenant}"
        registry.counter(f"{prefix}.offered", float(tenant.offered))
        registry.counter(f"{prefix}.completed", float(tenant.completed))
        registry.counter(f"{prefix}.hw_completed", float(tenant.hw_completed))
        registry.counter(f"{prefix}.sw_fallbacks", float(tenant.sw_fallbacks))
        registry.counter(f"{prefix}.shed", float(tenant.shed))
        registry.gauge(f"{prefix}.latency_p50", tenant.latency_p50)
        registry.gauge(f"{prefix}.latency_p95", tenant.latency_p95)
        registry.gauge(f"{prefix}.latency_p99", tenant.latency_p99)
        registry.gauge(f"{prefix}.goodput", tenant.goodput)
        registry.gauge(f"{prefix}.offered_load", tenant.offered_load)
    registry.counter("serve.offered", float(result.offered))
    registry.counter("serve.completed", float(result.completed))
    registry.counter("serve.shed", float(result.shed))
    registry.gauge("serve.goodput", result.goodput)
    registry.gauge("serve.latency_p99", result.latency_p99)
    registry.gauge("serve.jain_fairness", result.jain_fairness)
    for key, value in sorted(result.extras.items()):
        registry.gauge(
            "serve.extras." + _PROM_SANITIZE_RE.sub("_", key).replace(".", "_"),
            value,
        )
    return registry
