"""A sqlite-backed component source.

The closest stand-in for the paper's Informix component systems: a
self-describing relational file whose catalog (``sqlite_master`` plus
the ``table_info`` / ``foreign_key_list`` pragmas) lets the adapter
discover relations, primary keys and foreign keys without declarations.

Connections are opened read-only (URI ``mode=ro``) per operation with a
short busy timeout: component autonomy means the source may be written
or exclusively locked by its owner at any moment, and a locked or
corrupt file must surface as a typed
:class:`~repro.errors.SourceUnavailableError` for the executor's retry /
circuit-breaker machinery — never hang a scan thread.

A selected scan narrows in SQL when a selected column's data mapping
has a finite preimage of the constant (:func:`_sql_narrowing`); the
exact translated-value test still runs on every row SQL returns.
"""

from __future__ import annotations

import contextlib
import sqlite3
from pathlib import Path
from typing import Any, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SourceConfigError, SourceUnavailableError
from ..federation.mappings import DefaultMapping, TripleMapping
from ..federation.relational import Column, ForeignKey
from ..model.datatypes import DataType
from ..runtime.deltas import DeltaRecord
from .base import ColumnMapping, RelationSpec, SelectionTest, SourceAdapter
from .fingerprint import FileFingerprinter

#: seconds sqlite waits on a locked database before giving up; kept tiny
#: so a locked component fails fast into the retry path instead of
#: serializing the whole fan-out behind one writer.
LOCK_TIMEOUT = 0.2

#: sqlite declared-type affinity → primitive data type.
_AFFINITY = {
    "INT": DataType.INTEGER,
    "INTEGER": DataType.INTEGER,
    "BIGINT": DataType.INTEGER,
    "SMALLINT": DataType.INTEGER,
    "TINYINT": DataType.INTEGER,
    "REAL": DataType.REAL,
    "FLOAT": DataType.REAL,
    "DOUBLE": DataType.REAL,
    "NUMERIC": DataType.REAL,
    "DECIMAL": DataType.REAL,
    "BOOLEAN": DataType.BOOLEAN,
    "BOOL": DataType.BOOLEAN,
    "DATE": DataType.DATE,
    "TEXT": DataType.STRING,
    "VARCHAR": DataType.STRING,
    "CHAR": DataType.STRING,
    "STRING": DataType.STRING,
}


def _column_type(declared: str) -> DataType:
    token = declared.split("(")[0].strip().upper() if declared else ""
    return _AFFINITY.get(token, DataType.STRING)


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


#: declared type → (the storage class whose values coerce to themselves,
#: the Python type of those values)
_IDENTITY_STORAGE = {
    DataType.STRING: ("text", str),
    DataType.INTEGER: ("integer", int),
}

#: the int range sqlite binds
_INT64 = range(-(2**63), 2**63)


def _sql_narrowing(test: SelectionTest) -> Optional[Tuple[str, List[Any]]]:
    """A SQL condition every row passing *test* satisfies, or None.

    A row passes when its column, coerced and mapped, equals the
    constant.  Under a :class:`DefaultMapping` the raw values that do
    are the constant itself; under a :class:`TripleMapping` they are
    the ``b`` values of its preimage.  Those are exact only for values
    stored in the column's identity storage class (text for STRING,
    integer for INTEGER): ``+col`` strips the column affinity so sqlite
    compares them without conversion, and rows stored in any other
    class pass through to the exact test.  NULLs become the default,
    so they are dropped only when the default cannot match; a default
    equal to the constant makes the preimage infinite.
    """
    plan, constant = test
    storage = _IDENTITY_STORAGE.get(plan.raw_type)
    if storage is None or (plan.default is not None and plan.default == constant):
        return None
    kind, python_type = storage
    if type(plan.mapping) is DefaultMapping:
        preimage: Tuple[Any, ...] = (constant,)
    elif type(plan.mapping) is TripleMapping:
        preimage = plan.mapping.preimage(constant)
    else:
        return None
    if any(type(value) is not python_type for value in preimage):
        return None
    if python_type is int and any(value not in _INT64 for value in preimage):
        return None
    column = _quote(plan.column)
    match = (
        f"+{column} IN ({', '.join('?' for _ in preimage)})" if preimage else "0"
    )
    return (
        f"({match} OR typeof({column}) NOT IN ('{kind}', 'null'))",
        list(preimage),
    )


class SqliteSourceAdapter(SourceAdapter):
    """Serve the §3 OO view of a sqlite database file."""

    kind = "sqlite"

    def __init__(
        self,
        path: Union[str, Path],
        name: str = "",
        agent: str = "agent1",
        system: str = "",
        relations: Optional[Sequence[RelationSpec]] = None,
        mappings: Optional[Mapping[str, Sequence[ColumnMapping]]] = None,
    ) -> None:
        self.path = Path(path)
        self._fingerprinter = FileFingerprinter()
        super().__init__(
            name or self.path.stem,
            agent=agent,
            system=system,
            relations=relations,
            mappings=mappings,
        )

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        if not self.path.exists():
            raise SourceUnavailableError(
                f"sqlite source {self.name!r}: no such file {str(self.path)!r}"
            )
        try:
            connection = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, timeout=LOCK_TIMEOUT
            )
        except sqlite3.Error as error:
            raise SourceUnavailableError(
                f"sqlite source {self.name!r}: cannot open {str(self.path)!r}: {error}"
            ) from error
        try:
            yield connection
        except sqlite3.DatabaseError as error:
            raise SourceUnavailableError(
                f"sqlite source {self.name!r}: {error}"
            ) from error
        finally:
            connection.close()

    # ------------------------------------------------------------------
    def discover(self) -> Tuple[RelationSpec, ...]:
        specs: List[RelationSpec] = []
        with self._connect() as connection:
            tables = [
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' "
                    "AND name NOT LIKE 'sqlite_%' ORDER BY name"
                )
            ]
            for table in tables:
                info = connection.execute(
                    f"PRAGMA table_info({_quote(table)})"
                ).fetchall()
                if not info:  # pragma: no cover - catalog/table race
                    continue
                columns = tuple(
                    Column(row[1], _column_type(row[2])) for row in info
                )
                pk_columns = [row[1] for row in info if row[5]]
                foreign_keys = tuple(
                    ForeignKey(row[3], row[2], row[4] or row[3])
                    for row in connection.execute(
                        f"PRAGMA foreign_key_list({_quote(table)})"
                    )
                )
                specs.append(
                    RelationSpec(
                        table,
                        columns,
                        primary_key=pk_columns[0] if pk_columns else "",
                        foreign_keys=foreign_keys,
                    )
                )
        if not specs:
            raise SourceConfigError(
                f"sqlite source {self.name!r}: {str(self.path)!r} defines no tables"
            )
        return tuple(specs)

    def fetch_rows(self, relation: RelationSpec) -> Iterator[Mapping[str, Any]]:
        names = relation.column_names
        select = ", ".join(_quote(name) for name in names)
        with self._connect() as connection:
            cursor = connection.execute(
                f"SELECT {select} FROM {_quote(relation.name)} ORDER BY rowid"
            )
            for row in cursor:
                yield dict(zip(names, row))

    def fetch_selected_rows(
        self, relation: RelationSpec, tests: Sequence[SelectionTest]
    ) -> Iterator[Tuple[int, Mapping[str, Any]]]:
        """Drop in SQL the rows no test can pass (see
        :func:`_sql_narrowing`), numbering rows by ``rowid`` order over
        the whole relation so OIDs match an unselected scan."""
        clauses: List[str] = []
        params: List[Any] = []
        for test in tests:
            narrowing = _sql_narrowing(test)
            if narrowing is not None:
                clauses.append(narrowing[0])
                params.extend(narrowing[1])
        if not clauses:
            yield from self.fetch_numbered_rows(relation)
            return
        names = relation.column_names
        number = "_number"
        while number in names:
            number += "_"
        select = ", ".join(_quote(name) for name in names)
        with self._connect() as connection:
            cursor = connection.execute(
                f"SELECT * FROM (SELECT row_number() OVER (ORDER BY rowid) "
                f"AS {_quote(number)}, {select} FROM {_quote(relation.name)}) "
                f"WHERE {' AND '.join(clauses)} ORDER BY {_quote(number)}",
                params,
            )
            for row in cursor:
                yield row[0], dict(zip(names, row[1:]))

    def count_rows(self, relation_name: str) -> int:
        spec = self.relation(relation_name)
        with self._connect() as connection:
            (count,) = connection.execute(
                f"SELECT COUNT(*) FROM {_quote(spec.name)}"
            ).fetchone()
        return int(count)

    def source_version(self) -> int:
        """Fingerprint the file's *contents* (stat-memoized); rapid
        same-mtime writes cannot alias, and the value is deterministic
        across processes so a spilled extent cache can restore warm."""
        try:
            return self._fingerprinter.version([self.path])
        except OSError as error:
            raise SourceUnavailableError(
                f"sqlite source {self.name!r}: cannot read {str(self.path)!r}: "
                f"{error}"
            ) from error

    # ------------------------------------------------------------------
    # the write path (observed writes feed the delta log)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _connect_rw(self) -> Iterator[sqlite3.Connection]:
        if not self.path.exists():
            raise SourceUnavailableError(
                f"sqlite source {self.name!r}: no such file {str(self.path)!r}"
            )
        try:
            connection = sqlite3.connect(self.path, timeout=LOCK_TIMEOUT)
        except sqlite3.Error as error:
            raise SourceUnavailableError(
                f"sqlite source {self.name!r}: cannot open {str(self.path)!r}: "
                f"{error}"
            ) from error
        try:
            yield connection
            connection.commit()
        except sqlite3.DatabaseError as error:
            raise SourceUnavailableError(
                f"sqlite source {self.name!r}: {error}"
            ) from error
        finally:
            connection.close()

    def _rowid_of(self, connection: sqlite3.Connection, spec, number: int) -> int:
        row = connection.execute(
            f"SELECT rowid FROM {_quote(spec.name)} ORDER BY rowid "
            f"LIMIT 1 OFFSET ?",
            (number - 1,),
        ).fetchone()
        if row is None:
            raise SourceConfigError(
                f"sqlite source {self.name!r}, relation {spec.name!r}: "
                f"no row numbered {number}"
            )
        return int(row[0])

    def insert_row(self, relation_name: str, row: Mapping[str, Any]) -> int:
        """Insert one row and log the delta (new rows land at the tail,
        so the insert is patchable — positional numbering is preserved)."""
        spec = self.relation(relation_name)
        base = self.source_version()
        columns = [name for name in spec.column_names if name in row]
        with self._connect_rw() as connection:
            connection.execute(
                f"INSERT INTO {_quote(spec.name)} "
                f"({', '.join(_quote(name) for name in columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})",
                [row[name] for name in columns],
            )
        number = self.count_rows(relation_name)
        records = [
            DeltaRecord(
                "insert",
                spec.name,
                self._oid(spec.name, number),
                self._lift_row(spec, number, dict(row)),
            )
        ]
        records.extend(
            DeltaRecord("rescan", referrer)
            for referrer in self._referrers(spec.name)
        )
        return self._log_delta(base, self.source_version(), records)

    def update_row(
        self, relation_name: str, number: int, changes: Mapping[str, Any]
    ) -> int:
        """Update row *number* (1-based storage order) and log the delta."""
        spec = self.relation(relation_name)
        base = self.source_version()
        pk_moved = False
        with self._connect_rw() as connection:
            rowid = self._rowid_of(connection, spec, number)
            current = connection.execute(
                f"SELECT {', '.join(_quote(name) for name in spec.column_names)} "
                f"FROM {_quote(spec.name)} WHERE rowid = ?",
                (rowid,),
            ).fetchone()
            stored = dict(zip(spec.column_names, current))
            pk_moved = (
                spec.primary_key in changes
                and changes[spec.primary_key] != stored.get(spec.primary_key)
            )
            stored.update(changes)
            assignments = ", ".join(
                f"{_quote(name)} = ?" for name in changes
            )
            connection.execute(
                f"UPDATE {_quote(spec.name)} SET {assignments} WHERE rowid = ?",
                [*changes.values(), rowid],
            )
        records = [
            DeltaRecord(
                "update",
                spec.name,
                self._oid(spec.name, number),
                self._lift_row(spec, number, stored),
            )
        ]
        if pk_moved:
            records.extend(
                DeltaRecord("rescan", referrer)
                for referrer in self._referrers(spec.name)
            )
        return self._log_delta(base, self.source_version(), records)

    def delete_row(self, relation_name: str, number: int) -> int:
        """Delete row *number* — **un-patchable by design**: a physical
        delete renumbers every later row under positional OIDs, so the
        delta is a rescan marker and caches take the targeted fallback."""
        spec = self.relation(relation_name)
        base = self.source_version()
        with self._connect_rw() as connection:
            rowid = self._rowid_of(connection, spec, number)
            connection.execute(
                f"DELETE FROM {_quote(spec.name)} WHERE rowid = ?", (rowid,)
            )
        records = [DeltaRecord("rescan", spec.name)]
        records.extend(
            DeltaRecord("rescan", referrer)
            for referrer in self._referrers(spec.name)
        )
        return self._log_delta(base, self.source_version(), records)
