"""Golden regression tests.

Exact outputs of a few fixed configurations, pinned to catch
unintentional model drift.  The simulator is deterministic, so these
match to full float precision; an *intentional* model change must update
the golden values (and re-check EXPERIMENTS.md).
"""

import pytest

from repro.faults import parse_fault_spec
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.sim import SystemConfig, run_workload
from repro.workloads import get_workload

GOLDEN = {
    ("Denoise", "xbar"): (27292.04666666668, 1193246.7626134404),
    ("Denoise", "ring"): (26880.30130081302, 1177464.430365832),
    ("Denoise", "chainxbar"): (27306.04666666668, 1222294.875640112),
    ("EKF-SLAM", "xbar"): (6599.813333333335, 286974.78352377407),
    ("EKF-SLAM", "ring"): (4461.926991869917, 195194.66702147876),
    ("EKF-SLAM", "chainxbar"): (4621.073333333333, 206087.8576845661),
}

NETWORKS = {
    "xbar": SpmDmaNetworkConfig(),
    "ring": SpmDmaNetworkConfig(NetworkKind.RING, 32, 2),
    "chainxbar": SpmDmaNetworkConfig(NetworkKind.CHAINING_CROSSBAR),
}

#: DMA stalls and drops with bounded retry, on every network.
DMA_FAULTS = parse_fault_spec("dma:0.3,dmadrop:0.2")

#: (cycles, energy, dma_stalls, dma_retries) under DMA_FAULTS, fault seed 1.
DMA_FAULT_GOLDEN = {
    ("Denoise", "xbar"): (38277.22, 1666758.8000993219, 27, 11),
    ("Denoise", "ring"): (38412.7349593496, 1674525.7209828338, 27, 11),
    ("Denoise", "chainxbar"): (38291.22, 1707254.4269193246, 27, 11),
    ("EKF-SLAM", "xbar"): (13270.406666666666, 574508.3658043517, 4, 1),
    ("EKF-SLAM", "ring"): (11839.26032520325, 512994.27375356044, 4, 1),
    ("EKF-SLAM", "chainxbar"): (11998.406666666666, 531773.0475681288, 4, 1),
}


def golden_config(net: str, dma_faults: bool = False) -> SystemConfig:
    """The pinned 3-island system on network ``net``."""
    if dma_faults:
        return SystemConfig(
            n_islands=3, network=NETWORKS[net], faults=DMA_FAULTS, fault_seed=1
        )
    return SystemConfig(n_islands=3, network=NETWORKS[net])


@pytest.mark.parametrize("name,net", sorted(GOLDEN))
def test_golden_run(name, net):
    result = run_workload(golden_config(net), get_workload(name, tiles=4))
    cycles, energy = GOLDEN[(name, net)]
    assert result.total_cycles == pytest.approx(cycles, rel=1e-12)
    assert result.energy_nj == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("name,net", sorted(DMA_FAULT_GOLDEN))
def test_dma_fault_golden_run(name, net):
    result = run_workload(golden_config(net, True), get_workload(name, tiles=4))
    cycles, energy, stalls, retries = DMA_FAULT_GOLDEN[(name, net)]
    assert result.total_cycles == pytest.approx(cycles, rel=1e-12)
    assert result.energy_nj == pytest.approx(energy, rel=1e-12)
    assert (result.dma_stalls, result.dma_retries) == (stalls, retries)
