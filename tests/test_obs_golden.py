"""Golden equivalence: observability must be bit-neutral.

Tracing is opt-in and purely observational — a traced run must produce
*bit-identical* results to an untraced one.  These tests re-run the
pinned golden configurations with a tracer attached and require the
exact golden values, plus field-by-field equality of traced vs untraced
results for both batch and serving paths.
"""

import hashlib
from dataclasses import replace

import pytest

import repro.sim.run
from repro.engine.trace import Tracer
from repro.obs import serve_metrics, system_metrics, write_trace
from repro.serve import ArrivalConfig, ServeConfig, make_tenants, run_serve
from repro.sim import SystemConfig, run_workload
from repro.sim.serialize import record_to_dict
from repro.workloads import denoise, get_workload
from tests.test_golden import DMA_FAULT_GOLDEN, GOLDEN, golden_config

#: Every pinned configuration, the DMA-faulted ones included.
CONFIGS = [
    pytest.param(name, net, False, id=f"{name}-{net}") for name, net in sorted(GOLDEN)
] + [
    pytest.param(name, net, True, id=f"{name}-{net}-dmafaults")
    for name, net in sorted(DMA_FAULT_GOLDEN)
]


@pytest.mark.parametrize("name,net", sorted(GOLDEN))
def test_traced_run_matches_golden(name, net):
    config = golden_config(net)
    result = run_workload(config, get_workload(name, tiles=4), tracer=Tracer())
    cycles, energy = GOLDEN[(name, net)]
    assert result.total_cycles == pytest.approx(cycles, rel=1e-12)
    assert result.energy_nj == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("name,net,dma_faults", CONFIGS)
def test_traced_equals_untraced(name, net, dma_faults):
    config = golden_config(net, dma_faults)
    base = run_workload(config, get_workload(name, tiles=4))
    traced = run_workload(config, get_workload(name, tiles=4), tracer=Tracer())
    # Identical in every field except the attribution the tracer adds.
    assert traced.attribution  # tracing actually produced attribution
    assert not base.attribution
    assert replace(traced, attribution={}) == base
    # The serialized forms differ only in the attribution block.
    traced_dict = record_to_dict(traced)
    base_dict = record_to_dict(base)
    traced_dict.pop("attribution")
    base_dict.pop("attribution")
    assert traced_dict == base_dict


def test_traced_serve_equals_untraced():
    config = SystemConfig(n_islands=3)

    def run(tracer):
        tenants = make_tenants(
            2, [denoise()], ArrivalConfig(rate_per_mcycle=20.0)
        )
        return run_serve(
            config,
            ServeConfig(tenants=tenants, duration_cycles=200_000.0),
            tracer=tracer,
        )

    base = run(None)
    traced = run(Tracer())
    assert traced.extras and not base.extras
    assert replace(traced, extras={}) == base
    attr = {
        key[len("attr.") :]: value
        for key, value in traced.extras.items()
        if key.startswith("attr.")
    }
    assert sum(attr.values()) == pytest.approx(1.0)


def test_exported_trace_bytes_pinned(tmp_path):
    """The Perfetto export of one DMA-faulted golden run, byte for byte."""
    tracer = Tracer()
    run_workload(
        golden_config("xbar", dma_faults=True),
        get_workload("Denoise", tiles=4),
        tracer=tracer,
    )
    path = tmp_path / "trace.json"
    write_trace(tracer, str(path))
    assert len(tracer) == 356
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "70d50dc911bf8c2a399f1508e83f081556ad1636ed3c6f4a47438001f775fc8b"
    )


def test_exported_metrics_bytes_pinned(tmp_path, monkeypatch):
    """The metrics exports of the golden Denoise run and of one small
    serving session, byte for byte."""
    systems = []

    class Recorded(repro.sim.run.SystemModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    monkeypatch.setattr(repro.sim.run, "SystemModel", Recorded)
    run_workload(golden_config("xbar"), get_workload("Denoise", tiles=4))
    (system,) = systems
    registry = system_metrics(system, system.sim.now)
    path = tmp_path / "system.json"
    registry.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "144842030dbd80af56556cf3b69885d70a8a899448abde6ce4a64fea20ea339f"
    )
    assert hashlib.sha256(registry.to_prometheus().encode()).hexdigest() == (
        "e808959923a427fd6a641bca363174dd7fbcf8bb9064bb71ccbd391d4fd53bf2"
    )

    tenants = make_tenants(2, [denoise()], ArrivalConfig(rate_per_mcycle=20.0))
    result = run_serve(
        SystemConfig(n_islands=3),
        ServeConfig(tenants=tenants, duration_cycles=200_000.0),
    )
    path = tmp_path / "serve.json"
    serve_metrics(result).save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "045bc09eeac96fbde9b9cf348c2030d62295b3856d5714bf8e28cf6db5ea9248"
    )
