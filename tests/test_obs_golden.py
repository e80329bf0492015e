"""Golden equivalence: observability must be bit-neutral.

Tracing is opt-in and purely observational — a traced run must produce
*bit-identical* results to an untraced one.  These tests re-run the
pinned golden configurations with a tracer attached and require the
exact golden values, plus field-by-field equality of traced vs untraced
results for both batch and serving paths.
"""

from dataclasses import replace

import pytest

from repro.engine.trace import Tracer
from repro.serve import ArrivalConfig, ServeConfig, make_tenants, run_serve
from repro.sim import SystemConfig, run_workload
from repro.sim.serialize import result_to_dict
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
    traced_dict = result_to_dict(traced)
    base_dict = result_to_dict(base)
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
