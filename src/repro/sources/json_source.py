"""A JSON-directory component source.

One ``<relation>.json`` per relation, each holding a JSON array of flat
record objects.  JSON is semi-structured: discovery unions the keys seen
across records and infers each column's primitive type from its first
non-null value (bool → boolean, int → integer, float → real, str →
string); declared :class:`~repro.sources.base.RelationSpec`\\ s override
that, as with CSV.  Nested values (arrays, objects) have no place in the
§3 relational transformation and are rejected per record with a typed
:class:`~repro.errors.SourceFormatError`; an unparseable file is a
:class:`~repro.errors.SourceUnavailableError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SourceConfigError, SourceFormatError, SourceUnavailableError
from ..federation.relational import Column
from ..model.datatypes import DataType
from ..runtime.deltas import DeltaRecord
from .base import ColumnMapping, RelationSpec, SourceAdapter
from .fingerprint import FileFingerprinter

SUFFIX = ".json"


def _infer_type(value: Any) -> DataType:
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.REAL
    return DataType.STRING


class JsonSourceAdapter(SourceAdapter):
    """Serve the §3 OO view of a directory of JSON record arrays."""

    kind = "json"

    def __init__(
        self,
        directory: Union[str, Path],
        name: str = "",
        agent: str = "agent1",
        system: str = "",
        relations: Optional[Sequence[RelationSpec]] = None,
        mappings: Optional[Mapping[str, Sequence[ColumnMapping]]] = None,
        encoding: str = "utf-8",
    ) -> None:
        self.directory = Path(directory)
        self.encoding = encoding
        self._fingerprinter = FileFingerprinter()
        super().__init__(
            name or self.directory.name,
            agent=agent,
            system=system,
            relations=relations,
            mappings=mappings,
        )

    # ------------------------------------------------------------------
    def _files(self) -> List[Path]:
        if not self.directory.is_dir():
            raise SourceUnavailableError(
                f"json source {self.name!r}: no such directory "
                f"{str(self.directory)!r}"
            )
        return sorted(self.directory.glob(f"*{SUFFIX}"))

    def _load(self, relation_name: str) -> List[Any]:
        path = self.directory / f"{relation_name}{SUFFIX}"
        try:
            text = path.read_text(encoding=self.encoding)
        except OSError as error:
            raise SourceUnavailableError(
                f"json source {self.name!r}: cannot read {path.name!r}: {error}"
            ) from error
        try:
            records = json.loads(text)
        except json.JSONDecodeError as error:
            raise SourceUnavailableError(
                f"json source {self.name!r}: {path.name!r} is not valid JSON: "
                f"{error}"
            ) from error
        if not isinstance(records, list):
            raise SourceFormatError(
                self.name, relation_name, "top-level JSON value must be an array"
            )
        return records

    # ------------------------------------------------------------------
    def discover(self) -> Tuple[RelationSpec, ...]:
        files = self._files()
        if not files:
            raise SourceConfigError(
                f"json source {self.name!r}: {str(self.directory)!r} holds no "
                f"*{SUFFIX} files"
            )
        specs: List[RelationSpec] = []
        for path in files:
            records = self._load(path.stem)
            columns: Dict[str, Optional[DataType]] = {}
            for number, record in enumerate(records, start=1):
                if not isinstance(record, dict):
                    raise SourceFormatError(
                        self.name, path.stem, f"record {number} is not an object"
                    )
                for key, value in record.items():
                    if columns.get(key) is None:
                        columns[key] = None if value is None else _infer_type(value)
            if not columns:
                raise SourceFormatError(
                    self.name, path.stem, "no records to infer columns from"
                )
            specs.append(
                RelationSpec(
                    path.stem,
                    tuple(
                        Column(key, data_type or DataType.STRING)
                        for key, data_type in columns.items()
                    ),
                )
            )
        return tuple(specs)

    def fetch_rows(self, relation: RelationSpec) -> Iterator[Mapping[str, Any]]:
        for number, record in enumerate(self._load(relation.name), start=1):
            if not isinstance(record, dict):
                raise SourceFormatError(
                    self.name,
                    relation.name,
                    f"record {number} is not an object: {record!r}",
                )
            for key, value in record.items():
                if isinstance(value, (list, dict)):
                    raise SourceFormatError(
                        self.name,
                        relation.name,
                        f"record {number}, field {key!r}: nested values are "
                        f"not relational",
                    )
            yield {column: record.get(column) for column in relation.column_names}

    def source_version(self) -> int:
        """Fingerprint the files' *contents* (stat-memoized), so rapid
        same-mtime rewrites cannot alias to the pre-write version."""
        try:
            return self._fingerprinter.version(self._files())
        except OSError as error:
            raise SourceUnavailableError(
                f"json source {self.name!r}: cannot read its files: {error}"
            ) from error

    # ------------------------------------------------------------------
    # the write path (observed writes feed the delta log)
    # ------------------------------------------------------------------
    def _dump(self, relation_name: str, records: List[Any]) -> None:
        path = self.directory / f"{relation_name}{SUFFIX}"
        try:
            path.write_text(
                json.dumps(records, indent=1), encoding=self.encoding
            )
        except OSError as error:
            raise SourceUnavailableError(
                f"json source {self.name!r}: cannot write {path.name!r}: "
                f"{error}"
            ) from error

    def append_row(self, relation_name: str, row: Mapping[str, Any]) -> int:
        """Append one record to the relation's array and log the delta."""
        spec = self._writable(relation_name, row)
        stored = self._load(relation_name)
        base = self.source_version()
        number = len(stored) + 1
        # translate first: a row the §3 coercion refuses is never written
        instance = self._lift_row(spec, number, dict(row))
        stored.append(dict(row))
        self._dump(relation_name, stored)
        deltas = [
            DeltaRecord("insert", spec.name, self._oid(spec.name, number), instance)
        ]
        deltas.extend(
            DeltaRecord("rescan", referrer)
            for referrer in self._referrers(spec.name)
        )
        return self._log_delta(base, self.source_version(), deltas)

    def update_row(
        self, relation_name: str, number: int, changes: Mapping[str, Any]
    ) -> int:
        """Merge *changes* into record *number* and log the update delta."""
        spec = self._writable(relation_name, changes)
        stored = self._load(relation_name)
        if not 1 <= number <= len(stored):
            raise SourceConfigError(
                f"json source {self.name!r}, relation {relation_name!r}: "
                f"no record numbered {number}"
            )
        base = self.source_version()
        record = dict(stored[number - 1])
        pk_moved = (
            spec.primary_key in changes
            and changes[spec.primary_key] != record.get(spec.primary_key)
        )
        record.update(changes)
        instance = self._lift_row(spec, number, record)
        stored[number - 1] = record
        self._dump(relation_name, stored)
        deltas = [
            DeltaRecord("update", spec.name, self._oid(spec.name, number), instance)
        ]
        if pk_moved:
            deltas.extend(
                DeltaRecord("rescan", referrer)
                for referrer in self._referrers(spec.name)
            )
        return self._log_delta(base, self.source_version(), deltas)
