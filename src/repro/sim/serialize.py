"""Result serialization: persist runs and sweeps as JSON.

Simulations are deterministic, but sweeps are not free — serializing
results lets a DSE session be saved, diffed against a future code
version, or post-processed outside Python.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from repro.errors import ConfigError
from repro.sim.results import SimResult

#: Format version stamped into every serialized document.
SCHEMA_VERSION = 1


def write_document(path: str, document: dict) -> None:
    """Write one JSON document (stable key order, trailing newline)."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_document(path: str, expected_version: int = SCHEMA_VERSION) -> dict:
    """Read a JSON document written by :func:`write_document`.

    Rejects documents whose ``schema_version`` does not match, so a
    format change can never be silently misread as current data, and
    documents that are not an object with a ``results`` list.
    """
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ConfigError(f"{path!r} is not a JSON object")
    version = document.get("schema_version")
    if version != expected_version:
        raise ConfigError(
            f"unsupported results schema version {version!r} "
            f"(expected {expected_version})"
        )
    if not isinstance(document.get("results"), list):
        raise ConfigError(f"{path!r} has no results list")
    return document


def record_to_dict(record: typing.Any) -> dict:
    """Flatten a result dataclass into a JSON-safe dict.

    Walks the declared fields (as :mod:`repro.sim.fingerprint` does), so
    a new field is serialized without touching this module.  Nested
    records (a serve result's tenants) recurse; a record that defines
    ``summary_row()`` also carries its derived metrics under
    ``"derived"``, which decoding ignores.
    """
    out = {
        field.name: _encode(getattr(record, field.name))
        for field in dataclasses.fields(record)
    }
    if hasattr(record, "summary_row"):
        out["derived"] = record.summary_row()
    return out


def _encode(value: typing.Any) -> typing.Any:
    if dataclasses.is_dataclass(value):
        return record_to_dict(value)
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def _decode(hint: typing.Any, value: typing.Any) -> typing.Any:
    """Coerce one JSON value to its field annotation."""
    origin = typing.get_origin(hint)
    if origin is dict:
        key_type, value_type = typing.get_args(hint)
        return {key_type(k): value_type(v) for k, v in dict(value).items()}
    if origin is tuple:
        item_class = typing.get_args(hint)[0]
        return tuple(record_from_dict(item_class, item) for item in value)
    return hint(value) if hint in (int, float) else value


def record_from_dict(cls: type, data: typing.Mapping) -> typing.Any:
    """Rebuild a ``cls`` record from :func:`record_to_dict` output.

    A field with a dataclass default may be absent (older documents);
    one without is required.  A missing field, a value that does not
    coerce to its annotation, or a ``data`` that is not a mapping raises
    :class:`ConfigError` naming the class (and field).
    """
    if not isinstance(data, typing.Mapping):
        raise ConfigError(
            f"serialized {cls.__name__} must be an object, got {data!r}"
        )
    fields = dataclasses.fields(cls)
    missing = {
        field.name
        for field in fields
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    } - set(data)
    if missing:
        raise ConfigError(
            f"serialized {cls.__name__} missing fields: {sorted(missing)}"
        )
    hints = typing.get_type_hints(cls)
    values = {}
    for field in fields:
        if field.name in data:
            try:
                values[field.name] = _decode(hints[field.name], data[field.name])
            except (ValueError, TypeError, AttributeError) as err:
                raise ConfigError(
                    f"serialized {cls.__name__} field {field.name!r}: {err}"
                ) from None
    return cls(**values)


def save_results(
    results: typing.Sequence[SimResult], path: str, note: str = ""
) -> None:
    """Write a list of results to a JSON file."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "note": note,
        "results": [record_to_dict(r) for r in results],
    }
    write_document(path, document)


def load_results(path: str) -> list:
    """Read results back from :func:`save_results` output."""
    document = read_document(path)
    return [record_from_dict(SimResult, d) for d in document["results"]]
