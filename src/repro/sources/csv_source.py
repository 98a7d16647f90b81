"""A CSV-directory component source.

One ``<relation>.csv`` per relation, first row the header.  CSV carries
no types, keys or foreign keys, so in practice a federation declares
:class:`~repro.sources.base.RelationSpec`\\ s (pinning column types and
FKs) and the files only supply rows; pure discovery falls back to
all-STRING columns with the first header column as primary key.

Cells are text: the empty cell reads as NULL (there is no other way to
say "missing" in CSV) and every other value goes through the declared
type's coercion.  A row whose field count disagrees with the header is a
truncated or over-long record — a typed, row-numbered
:class:`~repro.errors.SourceFormatError`, not a silent drop.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SourceConfigError, SourceFormatError, SourceUnavailableError
from ..federation.relational import Column
from ..runtime.deltas import DeltaRecord
from .base import ColumnMapping, RelationSpec, SourceAdapter
from .fingerprint import FileFingerprinter

SUFFIX = ".csv"


class CsvSourceAdapter(SourceAdapter):
    """Serve the §3 OO view of a directory of CSV files."""

    kind = "csv"

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
    def _file_for(self, relation_name: str) -> Path:
        return self.directory / f"{relation_name}{SUFFIX}"

    def _files(self) -> List[Path]:
        if not self.directory.is_dir():
            raise SourceUnavailableError(
                f"csv source {self.name!r}: no such directory "
                f"{str(self.directory)!r}"
            )
        return sorted(self.directory.glob(f"*{SUFFIX}"))

    def _read_header(self, path: Path) -> List[str]:
        try:
            with path.open(newline="", encoding=self.encoding) as handle:
                header = next(csv.reader(handle), None)
        except OSError as error:
            raise SourceUnavailableError(
                f"csv source {self.name!r}: cannot read {path.name!r}: {error}"
            ) from error
        if not header:
            raise SourceFormatError(self.name, path.stem, "file has no header row")
        return header

    # ------------------------------------------------------------------
    def discover(self) -> Tuple[RelationSpec, ...]:
        specs: List[RelationSpec] = []
        files = self._files()
        if not files:
            raise SourceConfigError(
                f"csv source {self.name!r}: {str(self.directory)!r} holds no "
                f"*{SUFFIX} files"
            )
        for path in files:
            header = self._read_header(path)
            specs.append(
                RelationSpec(path.stem, tuple(Column(name) for name in header))
            )
        return tuple(specs)

    def fetch_rows(self, relation: RelationSpec) -> Iterator[Mapping[str, Any]]:
        path = self._file_for(relation.name)
        try:
            handle = path.open(newline="", encoding=self.encoding)
        except OSError as error:
            raise SourceUnavailableError(
                f"csv source {self.name!r}: cannot read {path.name!r}: {error}"
            ) from error
        with handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header:
                raise SourceFormatError(
                    self.name, relation.name, "file has no header row"
                )
            missing = set(relation.column_names) - set(header)
            if missing:
                raise SourceFormatError(
                    self.name,
                    relation.name,
                    f"header lacks declared columns {sorted(missing)}",
                )
            for number, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise SourceFormatError(
                        self.name,
                        relation.name,
                        f"row {number}: {len(row)} fields, header has "
                        f"{len(header)} (truncated or overlong record)",
                    )
                yield {
                    column: (value if value != "" else None)
                    for column, value in zip(header, row)
                }

    def source_version(self) -> int:
        """Fingerprint the files' *contents* (stat-memoized), so rapid
        same-mtime rewrites cannot alias to the pre-write version."""
        try:
            return self._fingerprinter.version(self._files())
        except OSError as error:
            raise SourceUnavailableError(
                f"csv source {self.name!r}: cannot read its files: {error}"
            ) from error

    # ------------------------------------------------------------------
    # the write path (observed writes feed the delta log)
    # ------------------------------------------------------------------
    def append_row(self, relation_name: str, row: Mapping[str, Any]) -> int:
        """Append one record to the relation's file and log the delta.

        Appends preserve positional numbering (the new row is last), so
        the write is patchable; any other CSV edit happens outside the
        adapter and reaches caches through the chain-gap fallback.
        """
        spec = self._writable(relation_name, row)
        path = self._file_for(relation_name)
        header = self._read_header(path)
        base = self.source_version()
        number = self.count_rows(relation_name) + 1
        # translate first: a row the §3 coercion refuses is never written
        instance = self._lift_row(spec, number, dict(row))
        try:
            with path.open("a", newline="", encoding=self.encoding) as handle:
                csv.writer(handle).writerow(
                    "" if row.get(column) is None else row[column]
                    for column in header
                )
        except OSError as error:
            raise SourceUnavailableError(
                f"csv source {self.name!r}: cannot write {path.name!r}: {error}"
            ) from error
        records = [
            DeltaRecord("insert", spec.name, self._oid(spec.name, number), instance)
        ]
        records.extend(
            DeltaRecord("rescan", referrer)
            for referrer in self._referrers(spec.name)
        )
        return self._log_delta(base, self.source_version(), records)
