"""Tests for result serialization."""

import json

import pytest

from repro.errors import ConfigError
from repro.serve.slo import (
    SERVE_SCHEMA_VERSION,
    ServeResult,
    TenantSLO,
    load_serve_results,
)
from repro.sim import SimResult, SystemConfig, run_workload
from repro.sim.serialize import (
    load_results,
    record_from_dict,
    record_to_dict,
    save_results,
)
from repro.workloads import synthetic_workload


@pytest.fixture(scope="module")
def result():
    return run_workload(
        SystemConfig(n_islands=3), synthetic_workload(depth=2, width=2, tiles=4)
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_fields(self, result):
        rebuilt = record_from_dict(SimResult, record_to_dict(result))
        assert rebuilt.workload == result.workload
        assert rebuilt.total_cycles == result.total_cycles
        assert rebuilt.energy_nj == result.energy_nj
        assert rebuilt.performance == result.performance
        assert rebuilt.energy_breakdown_nj == result.energy_breakdown_nj

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "results.json"
        save_results([result, result], str(path), note="unit test")
        loaded = load_results(str(path))
        assert len(loaded) == 2
        assert loaded[0].total_cycles == result.total_cycles

    def test_derived_metrics_included(self, result):
        data = record_to_dict(result)
        assert data["derived"]["performance"] == pytest.approx(result.performance)

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError):
            record_from_dict(SimResult, {"workload": "x"})

    def test_bad_schema_version_rejected(self, result, tmp_path):
        import json

        path = tmp_path / "bad.json"
        doc = {"schema_version": 99, "results": []}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_results(str(path))


# One codec serves every result record; each serialized key set and
# each required-field set is pinned so a field change shows up here.
SIM_KEYS = {
    "workload", "config_label", "tiles", "total_cycles", "energy_nj",
    "area_mm2", "abb_utilization_avg", "abb_utilization_peak",
    "energy_breakdown_nj", "noc_max_link_utilization", "memory_bytes",
    "failed_abbs", "dma_stalls", "dma_retries", "fallback_tasks",
    "fallback_tiles", "attribution", "derived",
}
TENANT_KEYS = {
    "tenant", "workload", "offered", "completed", "hw_completed",
    "sw_fallbacks", "shed", "latency_p50", "latency_p95", "latency_p99",
    "latency_mean", "latency_max", "offered_load", "goodput",
}
SERVE_KEYS = {
    "config_label", "policy", "duration_cycles", "drained_cycles", "tenants",
    "latency_p50", "latency_p95", "latency_p99", "latency_mean",
    "latency_max", "jain_fairness", "energy_nj", "abb_utilization_avg",
    "mean_wait_estimate", "extras", "derived",
}
REQUIRED = {
    SimResult: {
        "workload", "config_label", "tiles", "total_cycles", "energy_nj",
        "area_mm2",
    },
    TenantSLO: {"tenant", "workload", "offered", "completed"},
    ServeResult: {"config_label", "policy", "duration_cycles", "drained_cycles"},
}


def _tenant(name: str) -> TenantSLO:
    return TenantSLO(
        tenant=name, workload="rpc", offered=10, completed=9, hw_completed=7,
        sw_fallbacks=2, shed=1, latency_p50=100.0, latency_p95=150.0,
        latency_p99=190.5, latency_mean=110.25, latency_max=200.0,
        offered_load=5.0, goodput=4.5,
    )


def _serve_result() -> ServeResult:
    return ServeResult(
        config_label="3 islands", policy="wait_threshold",
        duration_cycles=2e6, drained_cycles=2.1e6,
        tenants=(_tenant("t0"), _tenant("t1")),
        latency_p50=100.0, latency_p95=150.0, latency_p99=190.5,
        latency_mean=110.25, latency_max=200.0, jain_fairness=0.98,
        energy_nj=1234.5, abb_utilization_avg=0.4, mean_wait_estimate=12.0,
        extras={"attr.compute": 0.5},
    )


@pytest.fixture(scope="module")
def records(result):
    return {
        SimResult: result,
        TenantSLO: _tenant("t0"),
        ServeResult: _serve_result(),
    }


RECORD_TYPES = [SimResult, TenantSLO, ServeResult]


class TestRecordCodec:
    @pytest.mark.parametrize(
        "cls, keys",
        [(SimResult, SIM_KEYS), (TenantSLO, TENANT_KEYS),
         (ServeResult, SERVE_KEYS)],
    )
    def test_serialized_keys_pinned(self, records, cls, keys):
        assert set(record_to_dict(records[cls])) == keys

    def test_tenants_nest_as_tenant_dicts(self, records):
        data = record_to_dict(records[ServeResult])
        assert [set(t) for t in data["tenants"]] == [TENANT_KEYS] * 2
        assert data["derived"]["jain_fairness"] == 0.98

    @pytest.mark.parametrize("cls", RECORD_TYPES)
    def test_round_trip(self, records, cls):
        record = records[cls]
        assert record_from_dict(cls, record_to_dict(record)) == record

    @pytest.mark.parametrize("cls", RECORD_TYPES)
    def test_required_fields_alone_load(self, records, cls):
        data = record_to_dict(records[cls])
        only_required = {name: data[name] for name in REQUIRED[cls]}
        assert record_from_dict(cls, only_required) == cls(**only_required)

    @pytest.mark.parametrize(
        "cls, name",
        [(cls, name) for cls in RECORD_TYPES for name in sorted(REQUIRED[cls])],
    )
    def test_each_required_field_enforced(self, records, cls, name):
        data = record_to_dict(records[cls])
        del data[name]
        with pytest.raises(ConfigError, match=name):
            record_from_dict(cls, data)

    def test_numbers_coerced_to_declared_types(self, records):
        data = record_to_dict(records[SimResult])
        data["tiles"] = "4"
        data["total_cycles"] = int(data["total_cycles"]) + 1
        rebuilt = record_from_dict(SimResult, data)
        assert rebuilt.tiles == 4 and isinstance(rebuilt.tiles, int)
        assert isinstance(rebuilt.total_cycles, float)


class TestMalformedDocuments:
    """Every loader fails with ConfigError, never a stray exception."""

    def write(self, tmp_path, document):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        return str(path)

    @pytest.mark.parametrize("loader", [load_results, load_serve_results])
    def test_array_document_rejected(self, tmp_path, loader):
        with pytest.raises(ConfigError, match="not a JSON object"):
            loader(self.write(tmp_path, [1, 2]))

    def test_missing_results_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="results"):
            load_results(self.write(tmp_path, {"schema_version": 1}))

    def test_mistyped_field_names_class_and_field(self, records, tmp_path):
        data = record_to_dict(records[SimResult])
        data["tiles"] = "abc"
        path = self.write(tmp_path, {"schema_version": 1, "results": [data]})
        with pytest.raises(ConfigError, match="SimResult field 'tiles'"):
            load_results(path)

    def test_non_object_record_rejected(self, tmp_path):
        path = self.write(tmp_path, {"schema_version": 1, "results": [3]})
        with pytest.raises(ConfigError, match="SimResult"):
            load_results(path)

    def test_mistyped_serve_tenant_field(self, records, tmp_path):
        data = record_to_dict(records[ServeResult])
        data["tenants"][0]["offered"] = "many"
        path = self.write(
            tmp_path,
            {"schema_version": SERVE_SCHEMA_VERSION, "kind": "serve",
             "results": [data]},
        )
        with pytest.raises(ConfigError, match="TenantSLO field 'offered'"):
            load_serve_results(path)
