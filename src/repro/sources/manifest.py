"""Source-directory manifests: a federation described on disk.

A *source directory* is a self-contained federation: one
``federation.json`` manifest naming the component sources (kind, path,
agent/system names, optionally declared relation specs and §3 data
mappings) plus an assertion file in the DSL.  ``repro query
--source-dir DIR`` and a tenant's ``source_dir=`` both load one:

.. code-block:: json

    {
      "assertions": "assertions.dsl",
      "sources": [
        {"schema": "university", "kind": "sqlite", "path": "university.db",
         "relations": [{"name": "person",
                        "columns": [["ssn", "string"], ["lvl", "string"]],
                        "primary_key": "ssn",
                        "foreign_keys": [["dept", "department", "code"]]}],
         "mappings": {"person": [{"column": "lvl", "attribute": "level",
                                  "kind": "triples", "type": "integer",
                                  "triples": [[1, "L1", 1.0]]}]}}
      ]
    }

Mapping kinds mirror the paper's three data-mapping forms: ``default``
(identity), ``triples`` (fuzzy ``(a, b; χ)`` with a threshold) and
``linear`` (the conversion function ``y = a·x + b``).  The module also
writes manifests (:func:`mapping_to_json` et al.) so the workload
generators can materialize a federation the loader reads back verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Type, Union

from ..errors import SourceConfigError, SourceUnavailableError
from ..federation.mappings import DataMapping, DefaultMapping, TripleMapping
from ..federation.relational import Column, ForeignKey
from ..model.datatypes import DataType
from .base import ColumnMapping, LinearMapping, RelationSpec, SourceAdapter, SourceDatabase
from .csv_source import CsvSourceAdapter
from .json_source import JsonSourceAdapter
from .sqlite_source import SqliteSourceAdapter

MANIFEST_NAME = "federation.json"

ADAPTER_KINDS: Dict[str, Type[SourceAdapter]] = {
    "sqlite": SqliteSourceAdapter,
    "csv": CsvSourceAdapter,
    "json": JsonSourceAdapter,
}


# ----------------------------------------------------------------------
# JSON → objects
# ----------------------------------------------------------------------
def relation_from_json(payload: Mapping[str, Any]) -> RelationSpec:
    try:
        name = payload["name"]
        columns = tuple(
            Column(column_name, DataType.parse(type_name))
            for column_name, type_name in payload["columns"]
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SourceConfigError(f"bad relation spec {payload!r}: {error}") from error
    foreign_keys = tuple(
        ForeignKey(*fk) for fk in payload.get("foreign_keys", ())
    )
    return RelationSpec(
        name,
        columns,
        primary_key=payload.get("primary_key", ""),
        foreign_keys=foreign_keys,
    )


def mapping_from_json(payload: Mapping[str, Any]) -> ColumnMapping:
    kind = payload.get("kind", "default")
    mapping: DataMapping
    if kind == "default":
        mapping = DefaultMapping()
    elif kind == "triples":
        mapping = TripleMapping(
            tuple((a, b, float(chi)) for a, b, chi in payload.get("triples", ())),
            threshold=float(payload.get("threshold", 0.0)),
        )
    elif kind == "linear":
        mapping = LinearMapping(
            a=float(payload.get("a", 1.0)),
            b=float(payload.get("b", 0.0)),
            as_int=bool(payload.get("as_int", False)),
        )
    else:
        raise SourceConfigError(
            f"unknown mapping kind {kind!r}; expected default, triples or linear"
        )
    try:
        column = payload["column"]
    except KeyError:
        raise SourceConfigError(f"mapping {payload!r} names no column") from None
    data_type = payload.get("type")
    return ColumnMapping(
        column=column,
        attribute=payload.get("attribute", ""),
        mapping=mapping,
        default=payload.get("default"),
        data_type=DataType.parse(data_type) if data_type else None,
    )


# ----------------------------------------------------------------------
# objects → JSON (manifest writing, used by the workload generators)
# ----------------------------------------------------------------------
def relation_to_json(spec: RelationSpec) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "name": spec.name,
        "columns": [[column.name, column.data_type.value] for column in spec.columns],
        "primary_key": spec.primary_key,
    }
    if spec.foreign_keys:
        payload["foreign_keys"] = [
            [fk.column, fk.target_relation, fk.target_column]
            for fk in spec.foreign_keys
        ]
    return payload


def mapping_to_json(mapping: ColumnMapping) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"column": mapping.column}
    if mapping.attribute:
        payload["attribute"] = mapping.attribute
    if mapping.data_type is not None:
        payload["type"] = mapping.data_type.value
    if mapping.default is not None:
        payload["default"] = mapping.default
    inner = mapping.mapping
    if isinstance(inner, TripleMapping):
        payload["kind"] = "triples"
        payload["triples"] = [list(triple) for triple in inner.triples]
        if inner.threshold:
            payload["threshold"] = inner.threshold
    elif isinstance(inner, LinearMapping):
        payload["kind"] = "linear"
        payload["a"] = inner.a
        payload["b"] = inner.b
        if inner.as_int:
            payload["as_int"] = True
    elif isinstance(inner, DefaultMapping):
        payload["kind"] = "default"
    else:
        raise SourceConfigError(
            f"mapping {inner!r} has no manifest form (use default, "
            f"TripleMapping or LinearMapping)"
        )
    return payload


# ----------------------------------------------------------------------
# loading a source directory
# ----------------------------------------------------------------------
def build_adapter(
    directory: Path, payload: Mapping[str, Any]
) -> SourceAdapter:
    """One manifest ``sources`` entry → a configured adapter."""
    kind = payload.get("kind", "")
    adapter_type = ADAPTER_KINDS.get(kind)
    if adapter_type is None:
        raise SourceConfigError(
            f"unknown source kind {kind!r}; expected one of "
            f"{sorted(ADAPTER_KINDS)}"
        )
    schema_name = payload.get("schema", "")
    if not schema_name:
        raise SourceConfigError(f"source entry {payload!r} names no schema")
    path = payload.get("path", "")
    if not path:
        raise SourceConfigError(f"source {schema_name!r} names no path")
    relations = (
        [relation_from_json(spec) for spec in payload["relations"]]
        if "relations" in payload
        else None
    )
    mappings = {
        relation: [mapping_from_json(entry) for entry in entries]
        for relation, entries in payload.get("mappings", {}).items()
    } or None
    return adapter_type(
        directory / path,
        name=schema_name,
        agent=payload.get("agent", f"agent-{schema_name}"),
        system=payload.get("system", ""),
        relations=relations,
        mappings=mappings,
    )


def load_source_federation(
    directory: Union[str, Path],
) -> Tuple[str, Dict[str, SourceDatabase]]:
    """Load a source directory: (assertion DSL text, schema → store).

    Stores come back keyed and named by their manifest ``schema`` so
    they host directly: one FSM-agent per source, schemas integrate and
    queries run with no further configuration.
    """
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except OSError as error:
        raise SourceUnavailableError(
            f"source directory {str(root)!r}: cannot read {MANIFEST_NAME}: {error}"
        ) from error
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise SourceConfigError(
            f"{MANIFEST_NAME} in {str(root)!r} is not valid JSON: {error}"
        ) from error
    if not isinstance(manifest, dict) or not isinstance(
        manifest.get("sources"), list
    ):
        raise SourceConfigError(
            f"{MANIFEST_NAME} must be an object with a 'sources' array"
        )
    databases: Dict[str, SourceDatabase] = {}
    for entry in manifest["sources"]:
        if not isinstance(entry, dict):
            raise SourceConfigError(f"bad source entry {entry!r}")
        adapter = build_adapter(root, entry)
        if adapter.name in databases:
            raise SourceConfigError(
                f"duplicate source schema {adapter.name!r} in {MANIFEST_NAME}"
            )
        databases[adapter.name] = adapter.database()
    if not databases:
        raise SourceConfigError(f"{MANIFEST_NAME} declares no sources")
    assertions = ""
    assertion_file = manifest.get("assertions", "")
    if assertion_file:
        try:
            assertions = (root / assertion_file).read_text(encoding="utf-8")
        except OSError as error:
            raise SourceUnavailableError(
                f"source directory {str(root)!r}: cannot read assertion file "
                f"{assertion_file!r}: {error}"
            ) from error
    return assertions, databases


def write_manifest(
    directory: Union[str, Path],
    sources: Sequence[Mapping[str, Any]],
    assertions: Optional[str] = None,
    assertion_file: str = "assertions.dsl",
) -> Path:
    """Write ``federation.json`` (and the assertion file) into *directory*."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, Any] = {"sources": list(sources)}
    if assertions is not None:
        manifest["assertions"] = assertion_file
        (root / assertion_file).write_text(assertions, encoding="utf-8")
    path = root / MANIFEST_NAME
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


__all__ = [
    "ADAPTER_KINDS",
    "MANIFEST_NAME",
    "build_adapter",
    "load_source_federation",
    "mapping_from_json",
    "mapping_to_json",
    "relation_from_json",
    "relation_to_json",
    "write_manifest",
]
