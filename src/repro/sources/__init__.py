"""Heterogeneous component sources (§3 over real storage).

Source adapters apply the paper's relational→OO transformation and
per-attribute data mappings to rows that actually live somewhere — a
sqlite file, a directory of CSVs, a directory of JSON record arrays —
and expose the result through the same
:class:`~repro.model.store.ComponentStore` interface as the in-memory
stores, so the whole federation runtime (transport, executor, planner,
sharding, extent cache, service tenants) works unchanged over disk.

Public surface: the adapter base and its three disk backends, the
in-memory backend used as the parity baseline, the hostable
:class:`SourceDatabase` facade, the declaration vocabulary
(:class:`RelationSpec`, :class:`ColumnMapping`, :class:`LinearMapping`)
and the ``federation.json`` manifest loader.
"""

from .base import (
    ColumnMapping,
    LinearMapping,
    MemorySourceAdapter,
    RelationSpec,
    SourceAdapter,
    SourceDatabase,
    coerce_value,
)
from .csv_source import CsvSourceAdapter
from .json_source import JsonSourceAdapter
from .manifest import (
    ADAPTER_KINDS,
    MANIFEST_NAME,
    build_adapter,
    load_source_federation,
    write_manifest,
)
from .sqlite_source import SqliteSourceAdapter

__all__ = [
    "ADAPTER_KINDS",
    "ColumnMapping",
    "CsvSourceAdapter",
    "JsonSourceAdapter",
    "LinearMapping",
    "MANIFEST_NAME",
    "MemorySourceAdapter",
    "RelationSpec",
    "SourceAdapter",
    "SourceDatabase",
    "SqliteSourceAdapter",
    "build_adapter",
    "coerce_value",
    "load_source_federation",
    "write_manifest",
]
