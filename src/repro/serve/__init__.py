"""Multi-tenant traffic serving: open-loop arrivals, admission, SLOs.

The subsystem that turns the one-shot simulator into a traffic-serving
one: seeded arrival processes per tenant (:mod:`repro.serve.arrivals`),
an ARC-style admission frontend with wait-time feedback
(:mod:`repro.serve.frontend`), a session runner interleaving N tenants
over one shared platform (:mod:`repro.serve.session`), and SLO metrics
with exact tail percentiles (:mod:`repro.serve.slo`).
"""

from repro.serve.arrivals import (
    ARRIVAL_KINDS,
    ArrivalConfig,
    arrival_times,
    mean_rate,
    trace_from_file,
)
from repro.serve.frontend import (
    ADMISSION_POLICIES,
    AdmissionConfig,
    AdmissionFrontend,
    Decision,
)
from repro.serve.session import (
    ServeConfig,
    TenantSpec,
    estimate_saturation,
    make_tenants,
    run_serve,
)
from repro.serve.slo import (
    ServeResult,
    TenantSLO,
    jain_index,
    latency_summary,
    load_serve_results,
    save_serve_results,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_KINDS",
    "AdmissionConfig",
    "AdmissionFrontend",
    "ArrivalConfig",
    "Decision",
    "ServeConfig",
    "ServeResult",
    "TenantSLO",
    "TenantSpec",
    "arrival_times",
    "estimate_saturation",
    "jain_index",
    "latency_summary",
    "load_serve_results",
    "make_tenants",
    "mean_rate",
    "run_serve",
    "save_serve_results",
    "trace_from_file",
]
