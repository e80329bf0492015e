"""Per-layer host-time profile of one pass, from Python's built-in profiler.

Each function's self time and call count goes to the ``repro`` package
that defines it.  Code outside ``repro`` (builtins such as
``heapq.heappush``, the standard library, generated dataclass methods)
goes to the layer that called it, split by the profiler's per-caller
records.  The benchmark's own code (unit closures and span wrappers) is
the ``bench`` bucket, which is left out of every share.  The yardstick
runs with the profiler paused.

Spans: while a profiled pass runs, a few public entry points are wrapped
so that their inclusive host time is summed by name.  The wrappers are
installed on the classes for the pass only and removed afterwards.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import os
import pstats
import time
import typing

import repro
import repro.obs.critpath
from repro.core import AcceleratorBlockComposer
from repro.engine import Simulator
from repro.serve import AdmissionFrontend

LAYERS = (
    "engine",
    "island",
    "noc",
    "mem",
    "core",
    "abb",
    "power",
    "sim",
    "faults",
    "serve",
    "dse",
    "obs",
    "other",
)
BENCH = "bench"

_PACKAGE_LAYERS = {
    "engine", "island", "noc", "mem", "core", "abb", "power", "sim",
    "serve", "dse", "obs",
}
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of_file(filename: str) -> typing.Optional[str]:
    """The layer a source file belongs to; None for code outside both
    ``repro`` and the benchmark (builtins, standard library)."""
    path = os.path.abspath(filename) if filename[:1] not in "~<" else filename
    if path.startswith(_BENCH_DIR):
        return BENCH
    if not path.startswith(_REPRO_DIR):
        return None
    rel = path[len(_REPRO_DIR):].replace(os.sep, "/")
    if rel == "engine/trace.py":
        return "obs"
    if rel == "faults.py":
        return "faults"
    head = rel.split("/", 1)[0]
    return head if head in _PACKAGE_LAYERS else "other"


#: Functions whose exact call counts are reported on their own:
#: metric name -> (file suffix or "~" for a builtin, function name).
COUNTED_FUNCTIONS = {
    "engine.heap_pushes": ("~", "<built-in method _heapq.heappush>"),
    "engine.processes": ("engine/simulator.py", "process"),
    "island.slot_usable": ("island/island.py", "slot_usable"),
}


class LayerProfile(typing.NamedTuple):
    self_s: dict  # layer -> raw self seconds
    calls: dict  # layer -> calls (fractional where split across callers)
    counted: dict  # COUNTED_FUNCTIONS name -> exact calls


def attribute(stats: dict) -> LayerProfile:
    """Group a ``pstats`` table by layer.

    Entries are visited in sorted order so that the float sums, and with
    them the call counts, repeat bit for bit from one pass to the next.
    """
    own = {func: layer_of_file(func[0]) for func in stats}
    memo: dict = {}

    def split(func, visiting: frozenset) -> dict:
        """Fraction of ``func``'s calls made on behalf of each layer."""
        if own[func] is not None:
            return {own[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        total = sum(entry[1] for entry in callers.values())
        if func in visiting or not total:
            return {"other": 1.0}
        shares: dict = {}
        for caller in sorted(callers):
            weight = callers[caller][1] / total
            for layer, frac in split(caller, visiting | {func}).items():
                shares[layer] = shares.get(layer, 0.0) + frac * weight
        memo[func] = shares
        return shares

    self_s = dict.fromkeys(LAYERS + (BENCH,), 0.0)
    calls = dict.fromkeys(LAYERS + (BENCH,), 0.0)
    for func in sorted(stats):
        _cc, nc, tt, _ct, callers = stats[func]
        layer = own[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        for caller in sorted(callers):
            _c_cc, c_nc, c_tt, _c_ct = callers[caller]
            for caller_layer, frac in split(caller, frozenset()).items():
                self_s[caller_layer] += c_tt * frac
                calls[caller_layer] += c_nc * frac

    counted = dict.fromkeys(COUNTED_FUNCTIONS, 0)
    for (filename, _line, name), entry in stats.items():
        for metric, (suffix, func_name) in COUNTED_FUNCTIONS.items():
            if name == func_name and filename.replace(os.sep, "/").endswith(
                suffix
            ):
                counted[metric] += entry[1]
    return LayerProfile(self_s, calls, counted)


class Spans:
    """Inclusive host time of a few public entry points, summed by name.

    Nested calls under the same name are timed once, at the outermost
    call.  ``systems`` collects every ``SystemModel`` built while the
    spans are installed, for reading simulated-machine counters.
    """

    def __init__(self) -> None:
        self.seconds: dict = {}
        self.systems: list = []
        self._depth: dict = {}

    def _wrap(self, name: str, func: typing.Callable) -> typing.Callable:
        seconds = self.seconds
        depth = self._depth
        seconds.setdefault(name, 0.0)
        depth.setdefault(name, 0)
        perf_counter = time.perf_counter

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if depth[name]:
                return func(*args, **kwargs)
            depth[name] = 1
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                depth[name] = 0

        return timed

    @contextlib.contextmanager
    def installed(self) -> typing.Iterator["Spans"]:
        """Wrap the entry points for the duration of the block."""
        systems = self.systems
        model_init = repro.SystemModel.__init__

        def capturing_init(system, *args, **kwargs):
            model_init(system, *args, **kwargs)
            systems.append(system)

        patches = [
            (repro.SystemModel, "__init__", "stage.build", capturing_init),
            (repro.Workload, "build_graph", "stage.build", None),
            (Simulator, "run", "stage.simulate", None),
            (
                repro.obs.critpath,
                "analyze_critical_path",
                "stage.attribute",
                None,
            ),
            (repro.obs, "trace_document", "stage.export", None),
            (repro.obs, "validate_events", "stage.export", None),
            (AcceleratorBlockComposer, "request", "core.request", None),
            (AcceleratorBlockComposer, "release", "core.release", None),
            (AdmissionFrontend, "decide", "serve.decide", None),
        ]
        originals = []
        try:
            for owner, attr, span, replacement in patches:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, replacement or original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def profiled(func: typing.Callable) -> typing.Tuple[typing.Any, dict]:
    """Run ``func(pause)`` under the profiler; returns its value and the
    ``pstats`` table.

    ``pause(f)`` calls ``f()`` with the profiler off.  The yardstick runs
    that way, so that it measures the host and not the profiler.  It runs
    between units, when no ``repro`` frame is on the stack.
    """
    profiler = cProfile.Profile()

    def pause(f: typing.Callable) -> typing.Any:
        profiler.disable()
        try:
            return f()
        finally:
            profiler.enable()

    value = profiler.runcall(func, pause)
    return value, pstats.Stats(profiler).stats
