"""Golden regression tests.

Exact outputs of a few fixed configurations, pinned to catch
unintentional model drift.  The simulator is deterministic, so these
match to full float precision; an *intentional* model change must update
the golden values (and re-check EXPERIMENTS.md).
"""

import pytest

from repro.core import round_robin
from repro.faults import parse_fault_spec
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.serve import (
    AdmissionConfig,
    ArrivalConfig,
    ServeConfig,
    make_tenants,
    run_serve,
)
from repro.sim import SystemConfig, run_workload
from repro.workloads import get_workload, synthetic_workload

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


#: The serve rows: a 4-tenant on-off session queueing at the ABC.
SERVE_RPC = synthetic_workload(
    name="rpc", depth=2, width=2, invocations=32, tiles=16
)

SERVE_PLATFORMS = {
    # One island at 1.2x its saturation rate (914.12 requests/Mcycle).
    "one-island": (
        SystemConfig(
            n_islands=1,
            abb_mix={"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1},
        ),
        1.2 * 914.12 / 4,
    ),
    "three-island-rr-sharing": (
        SystemConfig(
            n_islands=3,
            abb_mix={"poly": 3, "div": 3, "sqrt": 2, "pow": 2, "sum": 2},
            policy=round_robin,
            spm_sharing=True,
        ),
        400.0,
    ),
}

#: (drained_cycles, energy_nj, latency_p99, offered, completed, shed,
#: sw_fallbacks) of the session, seed 7.
SERVE_GOLDEN = {
    ("one-island", "always_hw"): (
        328274.2091289166, 14196593.319060832, 126148.0967024604,
        310, 310, 0, 0,
    ),
    ("one-island", "wait_threshold"): (
        362665.40524590196, 20424415.427231442, 153868.7804928354,
        310, 310, 0, 108,
    ),
    ("one-island", "shed"): (
        217806.70912891993, 9419134.524879571, 18587.022935125562,
        310, 205, 105, 0,
    ),
    ("three-island-rr-sharing", "always_hw"): (
        427610.31650883355, 18501847.372404184, 253388.1037526128,
        435, 435, 0, 0,
    ),
    ("three-island-rr-sharing", "wait_threshold"): (
        634030.432486449, 36746578.20670076, 423777.6742448741,
        435, 435, 0, 213,
    ),
}


@pytest.mark.parametrize("platform,policy", sorted(SERVE_GOLDEN))
def test_serve_golden_session(platform, policy):
    config, rate = SERVE_PLATFORMS[platform]
    arrival = ArrivalConfig(
        kind="onoff",
        rate_per_mcycle=rate,
        mean_on_cycles=150_000,
        mean_off_cycles=150_000,
    )
    result = run_serve(
        config,
        ServeConfig(
            tenants=make_tenants(4, [SERVE_RPC], arrival),
            admission=AdmissionConfig(policy=policy),
            duration_cycles=200_000.0,
            seed=7,
        ),
    )
    drained, energy, p99, offered, completed, shed, fallbacks = SERVE_GOLDEN[
        (platform, policy)
    ]
    assert result.drained_cycles == pytest.approx(drained, rel=1e-12)
    assert result.energy_nj == pytest.approx(energy, rel=1e-12)
    assert result.latency_p99 == pytest.approx(p99, rel=1e-12)
    assert (result.offered, result.completed, result.shed) == (
        offered, completed, shed,
    )
    assert result.sw_fallbacks == fallbacks
