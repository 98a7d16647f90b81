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

A tuple's number (§3: "in the normal way") is its position in rowid
order.  Every statement reaches the rowid through the first of
``rowid``, ``_rowid_``, ``oid`` that no column of the table uses, and a
``WITHOUT ROWID`` table, which has no storage order to number, is
refused at discovery.

A selected scan narrows in SQL when a selected column's data mapping
has a bounded preimage of the constant (:func:`_sql_narrowing`): a
finite value list for default and fuzzy mappings, an integer interval
for a :class:`~repro.sources.base.LinearMapping` on an INTEGER column.
The exact translated-value test still runs on every row SQL returns.
The rows SQL keeps are numbered through a rowid → number map built once
per ``(relation, source version)`` and read in the same snapshot as the
rows.
"""

from __future__ import annotations

import contextlib
import math
import sqlite3
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import SourceConfigError, SourceUnavailableError
from ..federation.mappings import DefaultMapping, TripleMapping
from ..federation.relational import Column, ForeignKey
from ..model.datatypes import DataType, conforms
from ..runtime.deltas import DeltaRecord
from .base import (
    ColumnMapping,
    LinearMapping,
    RelationSpec,
    SelectionTest,
    SourceAdapter,
)
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


#: declared type → (the Python type of values stored in the storage
#: class that coerces to itself, a condition on column ``{0}`` true for
#: every non-NULL value stored in another class).  ``+`` strips the
#: column affinity, so values compare as stored, and sqlite orders
#: numbers < text < blobs: two comparisons find the non-text values
#: more cheaply than ``typeof`` on every row.  Reals sort among
#: integers, so INTEGER needs ``typeof``.
_IDENTITY_STORAGE = {
    DataType.STRING: (str, "+{0} < '' OR +{0} >= x''"),
    DataType.INTEGER: (int, "typeof({0}) NOT IN ('integer', 'null')"),
}

#: the int range sqlite binds
_INT64 = range(-(2**63), 2**63)

#: the names that reach a table's rowid, in the order tried; a column
#: of the same name (compared case-insensitively) shadows one
_ROWID_ALIASES = ("rowid", "_rowid_", "oid")

#: the integers a float holds exactly; a linear interval must lie within
_EXACT_FLOAT_INTS = 2**53


def _rowid_alias(connection: sqlite3.Connection, source: str, table: str) -> str:
    """The name that reaches *table*'s rowid.

    Raises :class:`~repro.errors.SourceConfigError` when the table has
    none (``WITHOUT ROWID``) or every alias is a column name: its rows
    then have no storage order to number.
    """
    used = {
        str(row[1]).lower()
        for row in connection.execute(f"PRAGMA table_info({_quote(table)})")
    }
    alias = next((name for name in _ROWID_ALIASES if name not in used), None)
    if alias is not None:
        try:
            connection.execute(f"SELECT {alias} FROM {_quote(table)} LIMIT 0")
            return alias
        except sqlite3.OperationalError as error:
            if "no such column" not in str(error):
                raise
    raise SourceConfigError(
        f"sqlite source {source!r}: table {table!r} has no reachable rowid "
        f"(WITHOUT ROWID, or columns named {', '.join(_ROWID_ALIASES)}), so "
        f"its rows have no storage order to number"
    )


def _linear_interval(
    mapping: LinearMapping, constant: Any, target_type: DataType
) -> Optional[Tuple[int, int]]:
    """An integer interval holding every stored integer *x* whose
    ``mapping.translate(x)`` equals *constant*, or None.

    The real-valued preimage of the constant (of ``[c - ½, c + ½]``
    when the mapping rounds) is widened by one integer on each side.
    ``translate`` is monotone in *x* — every float step in it is
    correctly rounded — so checking that the two bounds map strictly
    past the constant proves that no integer outside the interval can
    map onto it, whatever the rounding error of the division.  Bounds
    beyond ±2**53, where floats skip integers, give None, and so do a
    constant mapping, mapped values that could overflow, and mapped
    values that do not conform to *target_type* (the exact test raises
    on those rows, so SQL must not drop them).
    """
    a, b = mapping.a, mapping.b
    numeric = (int, float)
    if not (type(a) in numeric and type(b) in numeric and type(constant) in numeric):
        return None
    if a == 0 or not math.isfinite(abs(a) * 2.0**63 + abs(b)):
        return None
    half = 0.5 if mapping.as_int else 0.0
    try:
        ends = sorted(((constant - half - b) / a, (constant + half - b) / a))
    except OverflowError:  # an int constant beyond the float range
        return None
    if not all(math.isfinite(end) for end in ends):
        return None
    low, high = math.floor(ends[0]) - 1, math.ceil(ends[1]) + 1
    if low < -_EXACT_FLOAT_INTS or high > _EXACT_FLOAT_INTS:
        return None
    under, over = (low, high) if a > 0 else (high, low)
    if not conforms(mapping.translate(low), target_type):
        return None
    if not mapping.translate(under) < constant < mapping.translate(over):
        return None
    return low, high


def _sql_narrowing(test: SelectionTest) -> Optional[Tuple[str, List[Any]]]:
    """A SQL condition every row passing *test* satisfies, or None.

    A row passes when its column, coerced and mapped, equals the
    constant.  Under a :class:`DefaultMapping` the raw values that do
    are the constant itself; under a :class:`TripleMapping` they are
    the ``b`` values of its preimage; under a :class:`LinearMapping` on
    an INTEGER column they lie in :func:`_linear_interval`.  Those are
    exact only for values stored in the column's identity storage class
    (text for STRING, integer for INTEGER): ``+col`` strips the column
    affinity so sqlite compares them without conversion, and rows
    stored in any other class pass through to the exact test.  NULLs
    become the default, so they are dropped only when the default
    cannot match; a default equal to the constant makes the preimage
    infinite.
    """
    plan, constant = test
    storage = _IDENTITY_STORAGE.get(plan.raw_type)
    if storage is None or (plan.default is not None and plan.default == constant):
        return None
    python_type, other_classes = storage
    column = _quote(plan.column)
    passthrough = other_classes.format(column)
    if type(plan.mapping) is LinearMapping:
        interval = (
            _linear_interval(plan.mapping, constant, plan.target_type)
            if python_type is int
            else None
        )
        if interval is None:
            return None
        return f"(+{column} BETWEEN ? AND ? OR {passthrough})", list(interval)
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
    match = (
        f"+{column} IN ({', '.join('?' for _ in preimage)})" if preimage else "0"
    )
    return f"({match} OR {passthrough})", list(preimage)


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
        # relation -> the name that reaches its rowid (_ROWID_ALIASES)
        self._rowid_names: Dict[str, str] = {}
        # relation -> (source version, rowid -> tuple number)
        self._number_cache: Dict[str, Tuple[int, Dict[int, int]]] = {}

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
                _rowid_alias(connection, self.name, table)
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

    def _rowid(self, connection: sqlite3.Connection, table: str) -> str:
        """The name that reaches *table*'s rowid (resolved once)."""
        with self._lock:
            name = self._rowid_names.get(table)
        if name is None:
            name = _rowid_alias(connection, self.name, table)
            with self._lock:
                self._rowid_names[table] = name
        return name

    def fetch_rows(self, relation: RelationSpec) -> Iterator[Mapping[str, Any]]:
        names = relation.column_names
        select = ", ".join(_quote(name) for name in names)
        with self._connect() as connection:
            rowid = self._rowid(connection, relation.name)
            cursor = connection.execute(
                f"SELECT {select} FROM {_quote(relation.name)} ORDER BY {rowid}"
            )
            for row in cursor:
                yield dict(zip(names, row))

    def fetch_selected_rows(
        self, relation: RelationSpec, tests: Sequence[SelectionTest]
    ) -> Iterator[Tuple[int, Mapping[str, Any]]]:
        """Drop in SQL the rows no test can pass (see
        :func:`_sql_narrowing`) and number the rest through the
        relation's rowid → number map (:meth:`_row_numbers`), so OIDs
        match an unselected scan.

        The rows, the source version that keys the map and, when the
        cached map is stale, its rebuild all come from one read
        transaction: the row SELECT takes the shared lock, and in
        sqlite's default rollback-journal mode no writer can commit
        while it is held.
        """
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
        select = ", ".join(_quote(name) for name in names)
        with self._connect() as connection:
            rowid = self._rowid(connection, relation.name)
            connection.execute("BEGIN")
            cursor = connection.execute(
                f"SELECT {rowid}, {select} FROM {_quote(relation.name)} "
                f"WHERE {' AND '.join(clauses)} ORDER BY {rowid}",
                params,
            )
            numbers = self._row_numbers(connection, relation.name, rowid)
            for row in cursor:
                yield numbers[row[0]], dict(zip(names, row[1:]))

    def _row_numbers(
        self, connection: sqlite3.Connection, table: str, rowid: str
    ) -> Dict[int, int]:
        """rowid → tuple number for the snapshot *connection* reads,
        cached per source version the way ``_pk_index`` caches."""
        version = self.source_version()
        with self._lock:
            cached = self._number_cache.get(table)
            if cached is not None and cached[0] == version:
                return cached[1]
        cursor = connection.execute(
            f"SELECT {rowid} FROM {_quote(table)} ORDER BY {rowid}"
        )
        numbers = {value: number for number, (value,) in enumerate(cursor, start=1)}
        with self._lock:
            self._number_cache[table] = (version, numbers)
        return numbers

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

    def _rowid_of(
        self, connection: sqlite3.Connection, spec: RelationSpec, number: int
    ) -> int:
        rowid = self._rowid(connection, spec.name)
        row = connection.execute(
            f"SELECT {rowid} FROM {_quote(spec.name)} ORDER BY {rowid} "
            f"LIMIT 1 OFFSET ?",
            (number - 1,),
        ).fetchone()
        if row is None:
            raise SourceConfigError(
                f"sqlite source {self.name!r}, relation {spec.name!r}: "
                f"no row numbered {number}"
            )
        return int(row[0])

    def _stored_row(
        self, connection: sqlite3.Connection, spec: RelationSpec, rowid: object
    ) -> Optional[Dict[str, Any]]:
        """The raw row at *rowid*, or None when no row is stored there."""
        row = connection.execute(
            f"SELECT {', '.join(_quote(name) for name in spec.column_names)} "
            f"FROM {_quote(spec.name)} "
            f"WHERE {self._rowid(connection, spec.name)} = ?",
            (rowid,),
        ).fetchone()
        return None if row is None else dict(zip(spec.column_names, row))

    def _with_referrers(
        self, spec: RelationSpec, records: List[DeltaRecord]
    ) -> List[DeltaRecord]:
        return records + [
            DeltaRecord("rescan", referrer) for referrer in self._referrers(spec.name)
        ]

    def insert_row(self, relation_name: str, row: Mapping[str, Any]) -> int:
        """Insert one row and log the delta.

        A row that lands at the rowid tail takes the next tuple number
        and is logged as a patchable insert of the row as stored
        (assigned keys, column defaults and affinity applied).  A row
        whose rowid falls below the tail (an explicit INTEGER PRIMARY
        KEY) renumbers every later row, so its relation is marked for
        rescan instead.  The row is lifted inside the write transaction,
        so a row the §3 coercion refuses rolls the insert back.
        """
        spec = self._writable(relation_name, row)
        base = self.source_version()
        columns = [name for name in spec.column_names if name in row]
        with self._connect_rw() as connection:
            rowid = self._rowid(connection, spec.name)
            cursor = connection.execute(
                f"INSERT INTO {_quote(spec.name)} "
                f"({', '.join(_quote(name) for name in columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})",
                [row[name] for name in columns],
            )
            at_tail, number = connection.execute(
                f"SELECT max({rowid}) = ?, count(*) FROM {_quote(spec.name)}",
                (cursor.lastrowid,),
            ).fetchone()
            stored = self._stored_row(connection, spec, cursor.lastrowid)
            assert stored is not None  # just inserted, same transaction
            instance = self._lift_row(spec, number, stored)
        if at_tail:
            records = [
                DeltaRecord("insert", spec.name, self._oid(spec.name, number), instance)
            ]
        else:  # rows after the new one renumber
            records = [DeltaRecord("rescan", spec.name)]
        # a new pk value may resolve dangling references into it
        return self._log_delta(
            base, self.source_version(), self._with_referrers(spec, records)
        )

    def update_row(
        self, relation_name: str, number: int, changes: Mapping[str, Any]
    ) -> int:
        """Update row *number* (1-based storage order) and log the delta.

        The delta carries the row as stored after the update, lifted
        inside the write transaction so that a row the §3 coercion
        refuses rolls the update back.  An update that changes the row's
        rowid (an INTEGER PRIMARY KEY) moves it in storage order and
        renumbers rows, so its relation is marked for rescan instead of
        patched.
        """
        spec = self._writable(relation_name, changes)
        base = self.source_version()
        with self._connect_rw() as connection:
            rowid = self._rowid_of(connection, spec, number)
            before = self._stored_row(connection, spec, rowid)
            assignments = ", ".join(
                f"{_quote(name)} = ?" for name in changes
            )
            connection.execute(
                f"UPDATE {_quote(spec.name)} SET {assignments} "
                f"WHERE {self._rowid(connection, spec.name)} = ?",
                [*changes.values(), rowid],
            )
            stored = self._stored_row(connection, spec, rowid)
            if stored is None:  # the row left its rowid
                # its INTEGER PRIMARY KEY moved it: check the row there
                moved = self._stored_row(
                    connection, spec, changes.get(spec.primary_key)
                )
                if moved is not None:
                    self._lift_row(spec, number, moved)
                records = [DeltaRecord("rescan", spec.name)]
            else:
                records = [
                    DeltaRecord(
                        "update",
                        spec.name,
                        self._oid(spec.name, number),
                        self._lift_row(spec, number, stored),
                    )
                ]
        pk = spec.primary_key
        if stored is None or before is None or stored[pk] != before[pk]:
            records = self._with_referrers(spec, records)
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
                f"DELETE FROM {_quote(spec.name)} "
                f"WHERE {self._rowid(connection, spec.name)} = ?",
                (rowid,),
            )
        return self._log_delta(
            base,
            self.source_version(),
            self._with_referrers(spec, [DeltaRecord("rescan", spec.name)]),
        )
