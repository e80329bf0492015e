"""Tests for fingerprinting and the persistent DSE result cache."""

import dataclasses
import json
import os

import pytest

from repro.abb.library import standard_library
from repro.core.allocation import first_fit
from repro.dse.cache import ResultCache, library_fingerprint, point_fingerprint
from repro.errors import ConfigError
from repro.faults import FaultSpec
from repro.island import NetworkKind, SpmDmaNetworkConfig, SpmPorting
from repro.sim.fingerprint import canonical_value, digest
from repro.sim.run import run_workload
from repro.sim.serialize import SCHEMA_VERSION
from repro.sim.system import SystemConfig
from repro.workloads import get_workload, scale_workload

#: For each SystemConfig field, a value different from the default.
FIELD_ALTERNATES = {
    "n_islands": 6,
    "abb_mix": {"poly": 80, "div": 18, "sqrt": 9, "pow": 6, "sum": 9},
    "network": SpmDmaNetworkConfig(
        kind=NetworkKind.RING, link_width_bytes=16, rings=2
    ),
    "spm_porting": SpmPorting.DOUBLE,
    "spm_sharing": True,
    "noc_link_bytes_per_cycle": 7.0,
    "mesh_link_bytes_per_cycle": 17.0,
    "n_memory_controllers": 5,
    "mc_bandwidth_gbps": 11.0,
    "mc_latency_cycles": 181.0,
    "n_cores": 5,
    "n_l2_banks": 9,
    "policy": first_fit,
    "platform_static_mw": 44_000.0,
    "distribution": "clustered",
    "faults": FaultSpec(abb_failure_fraction=0.25),
    "fault_seed": 7,
}


class TestSystemConfigFingerprint:
    def test_stable_across_instances(self):
        assert SystemConfig().fingerprint() == SystemConfig().fingerprint()

    def test_covers_every_field(self):
        """Changing any single field must change the fingerprint."""
        base = SystemConfig()
        base_fp = base.fingerprint()
        fields = {f.name for f in dataclasses.fields(SystemConfig)}
        # The alternate table must track the dataclass: a new field
        # without an alternate here should fail loudly.
        assert fields == set(FIELD_ALTERNATES), (
            "FIELD_ALTERNATES out of sync with SystemConfig"
        )
        for name, alternate in FIELD_ALTERNATES.items():
            changed = dataclasses.replace(base, **{name: alternate})
            assert changed.fingerprint() != base_fp, (
                f"fingerprint ignores field {name!r}"
            )

    def test_old_key_collision_now_distinguished(self):
        """The stale-cache bug: fields the old tuple key omitted."""
        base = SystemConfig()
        for name in (
            "abb_mix",
            "distribution",
            "noc_link_bytes_per_cycle",
            "mesh_link_bytes_per_cycle",
            "n_memory_controllers",
            "mc_bandwidth_gbps",
            "mc_latency_cycles",
            "n_cores",
            "n_l2_banks",
            "policy",
        ):
            changed = dataclasses.replace(
                base, **{name: FIELD_ALTERNATES[name]}
            )
            assert changed.fingerprint() != base.fingerprint()


class TestPointFingerprint:
    def test_workload_identity_matters(self):
        config = SystemConfig()
        denoise = get_workload("Denoise", tiles=4)
        slam = get_workload("EKF-SLAM", tiles=4)
        assert point_fingerprint(config, denoise) != point_fingerprint(
            config, slam
        )

    def test_tiles_matter(self):
        config = SystemConfig()
        assert point_fingerprint(
            config, get_workload("Denoise", tiles=4)
        ) != point_fingerprint(config, get_workload("Denoise", tiles=8))

    def test_kernel_scaling_matters(self):
        config = SystemConfig()
        workload = get_workload("Denoise", tiles=4)
        assert point_fingerprint(config, workload) != point_fingerprint(
            config, scale_workload(workload, 2.0)
        )

    def test_tile_window_matters(self):
        config = SystemConfig()
        workload = get_workload("Denoise", tiles=4)
        assert point_fingerprint(
            config, workload, tile_window=8
        ) != point_fingerprint(config, workload, tile_window=4)

    def test_explicit_library_differs_from_default(self):
        config = SystemConfig()
        workload = get_workload("Denoise", tiles=4)
        assert point_fingerprint(
            config, workload, library=standard_library()
        ) != point_fingerprint(config, workload)

    def test_library_fingerprint_is_canonical(self):
        assert library_fingerprint(None) == "standard_library"
        a = library_fingerprint(standard_library())
        b = library_fingerprint(standard_library())
        assert a == b


class TestCanonicalValue:
    def test_scalars_pass_through(self):
        assert canonical_value(3) == 3
        assert canonical_value("x") == "x"
        assert canonical_value(None) is None

    def test_dicts_sorted(self):
        assert list(canonical_value({"b": 1, "a": 2})) == ["a", "b"]

    def test_enum_and_callable(self):
        assert canonical_value(SpmPorting.DOUBLE) == ["SpmPorting", "DOUBLE"]
        assert canonical_value(first_fit).endswith("first_fit")

    def test_local_lambda_rejected(self):
        with pytest.raises(ConfigError):
            canonical_value(lambda: None)

    def test_arbitrary_object_rejected(self):
        with pytest.raises(ConfigError):
            digest(object())


class TestResultCache:
    @pytest.fixture()
    def result(self):
        return run_workload(
            SystemConfig(n_islands=3), get_workload("Denoise", tiles=2)
        )

    def test_round_trip(self, tmp_path, result):
        cache = ResultCache(str(tmp_path))
        fingerprint = "ab" + "0" * 62
        assert cache.get(fingerprint) is None
        cache.put(fingerprint, result)
        loaded = cache.get(fingerprint)
        assert loaded == result
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path, result):
        cache = ResultCache(str(tmp_path))
        fingerprint = "cd" + "0" * 62
        cache.put(fingerprint, result)
        path = os.path.join(str(tmp_path), "cd", f"{fingerprint}.json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert cache.get(fingerprint) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path, result):
        cache = ResultCache(str(tmp_path))
        fingerprint = "ef" + "0" * 62
        cache.put(fingerprint, result)
        path = os.path.join(str(tmp_path), "ef", f"{fingerprint}.json")
        with open(path) as handle:
            document = json.load(handle)
        document["schema_version"] = 999
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(fingerprint) is None

    def test_mistyped_field_is_a_miss(self, tmp_path, result):
        cache = ResultCache(str(tmp_path))
        fingerprint = "ee" + "0" * 62
        cache.put(fingerprint, result)
        path = os.path.join(str(tmp_path), "ee", f"{fingerprint}.json")
        with open(path) as handle:
            document = json.load(handle)
        document["result"]["tiles"] = "abc"
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(fingerprint) is None
        assert (cache.hits, cache.misses) == (0, 1)

    @pytest.mark.parametrize(
        "document",
        [
            [1],
            {"schema_version": SCHEMA_VERSION, "kind": "sim", "result": {}},
            {"schema_version": SCHEMA_VERSION, "kind": "serve", "result": {}},
        ],
        ids=["not-an-object", "sim-result-missing-fields", "serve-result-missing-fields"],
    )
    def test_malformed_document_is_a_miss(self, tmp_path, document):
        cache = ResultCache(str(tmp_path))
        fingerprint = "12" + "0" * 62
        os.makedirs(os.path.join(str(tmp_path), "12"))
        path = os.path.join(str(tmp_path), "12", f"{fingerprint}.json")
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(fingerprint) is None
        assert cache.get_serve(fingerprint) is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_len_on_missing_dir(self, tmp_path):
        assert len(ResultCache(str(tmp_path / "nope"))) == 0
