"""Source adapters: the §3 relational→OO transformation over real rows.

A relational component enters the federation only through a
:class:`SourceAdapter`, which runs the paper's §3 pipeline — transform
the local relational schema to OO form, assign five-part OIDs "in the
normal way", and translate attribute values through per-attribute data
mappings ``F^A_{DB_i,B}`` — over the source's rows on every scan:

* :meth:`SourceAdapter.schema` derives the OO view of the source's
  relations — relation → class, non-FK column → attribute, FK →
  aggregation function ``[m:1]`` (``[1:1]`` when the FK column is the
  primary key);
* :meth:`SourceAdapter.scan` reads the rows, coerces raw storage values
  to their declared primitive types, applies the per-column
  :class:`~repro.federation.mappings.DataMapping` (default / fuzzy
  triple / conversion function), fills declared defaults for NULLs, and
  resolves FK values to target-tuple OIDs — dangling references stay
  ``None``, preserving component autonomy.

Subclasses only answer three storage questions: what relations exist
(:meth:`discover`), the rows of one relation (:meth:`fetch_rows`), and a
fingerprint of the current on-disk state (:meth:`source_version`) that
the extent cache compares for freshness.  :class:`SourceDatabase` wraps
an adapter in the :class:`~repro.model.store.ComponentStore` interface
so an :class:`~repro.federation.agent.FSMAgent` hosts it unchanged — the
transport, executor, planner, sharding and cache layers never learn that
the extents now live on disk.
"""

from __future__ import annotations

import dataclasses
import datetime
import threading
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
    Tuple,
)

from ..errors import (
    SourceConfigError,
    SourceFormatError,
    UnknownClassError,
)
from ..federation.mappings import DataMapping, DefaultMapping
from ..federation.relational import Column, ForeignKey
from ..model.aggregations import AggregationFunction, Cardinality
from ..model.attributes import Attribute
from ..model.classes import ClassDef
from ..model.datatypes import DataType, conforms
from ..model.instances import ObjectInstance
from ..model.oids import OID
from ..model.schema import Schema
from ..model.store import Selection, value_set_of
from ..runtime.deltas import DeltaLog, DeltaRecord, SourceDelta

if TYPE_CHECKING:
    from ..runtime.sharding import ShardSpec


@dataclasses.dataclass(frozen=True)
class RelationSpec:
    """One relation of a source: typed columns, primary key, FKs.

    The vocabulary (:class:`~repro.federation.relational.Column` /
    :class:`~repro.federation.relational.ForeignKey`) is shared with the
    workload generator, so declared specs read identically whether the
    rows live in memory or on disk.
    """

    name: str
    columns: Tuple[Column, ...]
    primary_key: str = ""
    foreign_keys: Tuple[ForeignKey, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SourceConfigError("relation name must be non-empty")
        if not self.columns:
            raise SourceConfigError(f"relation {self.name!r} needs at least one column")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SourceConfigError(f"relation {self.name!r} has duplicate columns")
        if not self.primary_key:
            object.__setattr__(self, "primary_key", names[0])
        if self.primary_key not in names:
            raise SourceConfigError(
                f"relation {self.name!r}: primary key {self.primary_key!r} "
                f"is not a column"
            )
        for foreign_key in self.foreign_keys:
            if foreign_key.column not in names:
                raise SourceConfigError(
                    f"relation {self.name!r}: FK column {foreign_key.column!r} "
                    f"is not a column"
                )

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise SourceConfigError(f"relation {self.name!r} has no column {name!r}")


@dataclasses.dataclass
class LinearMapping(DataMapping):
    """``y = a·x + b`` — the conversion-function mapping, serializably.

    The paper's example ``y = 2.54·x`` (inch→cm) and every scaling we
    need are affine; keeping the coefficients as data (instead of an
    opaque callable) lets source manifests round-trip through JSON.
    *as_int* rounds the result to an integer — for mappings whose
    integrated attribute is INTEGER, e.g. basis points → level.
    """

    a: float = 1.0
    b: float = 0.0
    as_int: bool = False

    def translate(self, value: Any) -> Any:
        if value is None:
            return None
        result = self.a * value + self.b
        return int(round(result)) if self.as_int else result

    def __repr__(self) -> str:
        return f"LinearMapping(y = {self.a}*x + {self.b}{', int' if self.as_int else ''})"


@dataclasses.dataclass(frozen=True)
class ColumnMapping:
    """Per-attribute data mapping ``F^A_{DB_i,B}`` applied on scan (§3).

    *column* names the source column B; *attribute* the integrated-side
    attribute A it surfaces as (defaults to the column name).  Raw values
    are coerced to the column's declared type, translated through
    *mapping*, and NULLs (including unmatched fuzzy values, which the
    paper says "become Null") are filled with *default*.  *data_type*
    declares A's primitive type when the mapping changes it — e.g. a
    fuzzy ``"L3" → 3`` mapping turns a STRING column into an INTEGER
    attribute.
    """

    column: str
    attribute: str = ""
    mapping: DataMapping = dataclasses.field(default_factory=DefaultMapping)
    default: Any = None
    data_type: Optional[DataType] = None

    @property
    def target(self) -> str:
        return self.attribute or self.column


def coerce_value(
    value: Any, data_type: DataType, *, source: str, relation: str, column: str
) -> Any:
    """Coerce one raw storage value to its declared primitive type.

    Storage formats are weakly typed — CSV cells are text, JSON has no
    date type, sqlite columns have affinity not types — so each backend's
    raw values pass through here before the data mapping runs.  ``None``
    passes through (nullability is part of the model); an impossible
    coercion is a typed, per-row :class:`~repro.errors.SourceFormatError`.
    """
    if value is None:
        return None
    try:
        if data_type is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, int):
                if value in (0, 1):
                    return bool(value)
                raise ValueError(value)
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "yes", "1"):
                    return True
                if lowered in ("false", "f", "no", "0"):
                    return False
            raise ValueError(value)
        if data_type is DataType.INTEGER:
            if isinstance(value, bool):
                raise ValueError(value)
            if isinstance(value, int):
                return value
            if isinstance(value, float):
                if value.is_integer():
                    return int(value)
                raise ValueError(value)
            if isinstance(value, str):
                return int(value.strip())
            raise ValueError(value)
        if data_type is DataType.REAL:
            if isinstance(value, bool):
                raise ValueError(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value.strip())
            raise ValueError(value)
        if data_type is DataType.CHARACTER:
            if isinstance(value, str) and len(value) == 1:
                return value
            raise ValueError(value)
        if data_type is DataType.STRING:
            if isinstance(value, str):
                return value
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, (int, float)):
                return str(value)
            if isinstance(value, datetime.date):
                return value.isoformat()
            raise ValueError(value)
        if data_type is DataType.DATE:
            if isinstance(value, datetime.datetime):
                return value.date()
            if isinstance(value, datetime.date):
                return value
            if isinstance(value, str):
                return datetime.date.fromisoformat(value.strip())
            raise ValueError(value)
    except (ValueError, TypeError):
        raise SourceFormatError(
            source,
            relation,
            f"column {column!r}: cannot coerce {value!r} to {data_type}",
        ) from None
    raise SourceFormatError(  # pragma: no cover - enum is exhaustive above
        source, relation, f"column {column!r}: unknown data type {data_type!r}"
    )


@dataclasses.dataclass(frozen=True)
class _AttributePlan:
    """Precompiled translation for one attribute column."""

    column: str
    target: str
    raw_type: DataType
    target_type: DataType
    mapping: DataMapping
    default: Any


#: one selected attribute: its translation plan and the constant its
#: translated value must equal
SelectionTest = Tuple[_AttributePlan, Any]


class SourceAdapter:
    """Base adapter: §3 transformation + data mappings over stored rows.

    Parameters
    ----------
    name:
        The database name baked into OIDs (paper: ``PatientDB``).
    agent, system:
        The FSM-agent and DBMS names of the OID scheme.
    relations:
        Declared :class:`RelationSpec`\\ s.  When omitted the adapter
        relies entirely on :meth:`discover`; when given they override
        discovery — the way a federation administrator pins types and
        foreign keys a weakly-typed backend cannot express.
    mappings:
        Per-relation :class:`ColumnMapping`\\ s keyed by relation name.
    """

    kind = "abstract"

    def __init__(
        self,
        name: str,
        agent: str = "agent1",
        system: str = "",
        relations: Optional[Sequence[RelationSpec]] = None,
        mappings: Optional[Mapping[str, Sequence[ColumnMapping]]] = None,
    ) -> None:
        if not name:
            raise SourceConfigError("source name must be non-empty")
        self.name = name
        self.agent = agent
        self.system = system or self.kind
        self._declared: Optional[Tuple[RelationSpec, ...]] = (
            tuple(relations) if relations is not None else None
        )
        self._mappings: Dict[str, Tuple[ColumnMapping, ...]] = {
            relation: tuple(specs) for relation, specs in (mappings or {}).items()
        }
        self._lock = threading.Lock()
        self._schema_cache: Optional[Tuple[str, Schema]] = None
        self._relation_cache: Optional[Dict[str, RelationSpec]] = None
        self._plan_cache: Dict[str, Tuple[_AttributePlan, ...]] = {}
        # FK resolution needs the target relation's pk→OID index; it is
        # cached per source version so one bulk scan does not re-read its
        # target relation once per FK column.
        self._pk_cache: Dict[str, Tuple[int, Dict[Any, OID]]] = {}
        # writes performed *through* the adapter append their mapped
        # records here; external modifications skip the log, so readers
        # behind an unlogged version step hit the chain-gap fallback
        self._delta_log = DeltaLog()

    # ------------------------------------------------------------------
    # the storage interface (subclass responsibility)
    # ------------------------------------------------------------------
    def discover(self) -> Tuple[RelationSpec, ...]:
        """Inspect the storage and derive its relation specs."""
        raise NotImplementedError

    def fetch_rows(self, relation: RelationSpec) -> Iterator[Mapping[str, Any]]:
        """Yield the raw rows of *relation* in stable storage order."""
        raise NotImplementedError

    def source_version(self) -> int:
        """A fingerprint of the current on-disk state (cache freshness)."""
        raise NotImplementedError

    def fetch_numbered_rows(
        self, relation: RelationSpec
    ) -> Iterator[Tuple[int, Mapping[str, Any]]]:
        """Yield ``(tuple number, raw row)`` pairs in storage order.

        The default numbers rows positionally 1..n, reproducing the §3
        "OIDs assigned in the normal way" scheme.  Backends whose write
        path can keep numbers stable across deletes (tombstones, rowids)
        override this so a delete patches instead of renumbering.
        Closing the iterator closes :meth:`fetch_rows`'s, so a scan that
        stops early releases the storage at once.
        """
        rows = self.fetch_rows(relation)
        try:
            yield from enumerate(rows, start=1)
        finally:
            _close(rows)

    # ------------------------------------------------------------------
    # the delta feed (incremental invalidation)
    # ------------------------------------------------------------------
    def changes_since(
        self, version: int
    ) -> Optional[Tuple[SourceDelta, ...]]:
        """The contiguous delta chain from *version*, or ``None`` (gap).

        Only writes made through the adapter's own helpers are logged;
        a version step the adapter did not observe (an external file
        edit, a :meth:`MemorySourceAdapter.bump`) breaks the chain and
        sends readers to the targeted-rescan fallback.
        """
        return self._delta_log.changes_since(version)

    def _writable(self, relation_name: str, row: Mapping[str, Any]) -> RelationSpec:
        """The spec of *relation_name*, once *row* names only its columns.

        Every write helper calls this before it writes, so a column the
        relation does not declare is refused instead of dropped.
        """
        spec = self.relation(relation_name)
        unknown = set(row).difference(spec.column_names)
        if unknown:
            raise SourceConfigError(
                f"source {self.name!r}, relation {spec.name!r}: unknown "
                f"columns {sorted(unknown)}"
            )
        return spec

    def _oid(self, relation_name: str, number: int) -> OID:
        return OID(self.agent, self.system, self.name, relation_name, number)

    def _referrers(self, relation_name: str) -> Tuple[str, ...]:
        """Relations whose FK resolution a write to *relation_name* can
        change — their extents embed OIDs looked up in its pk index."""
        return tuple(
            spec.name
            for spec in self._relation_index().values()
            if any(
                fk.target_relation == relation_name for fk in spec.foreign_keys
            )
        )

    def _lift_row(
        self, spec: RelationSpec, number: int, row: Mapping[str, Any]
    ) -> ObjectInstance:
        """Run the §3 pipeline on one written row (mapped delta payload)."""
        plans = self._attribute_plans(spec)
        fk_by_column = {fk.column: fk for fk in spec.foreign_keys}
        pk_indexes = {
            fk.target_relation: self._pk_index(fk.target_relation)
            for fk in spec.foreign_keys
        }
        return self._materialize_row(
            spec, number, row, plans, fk_by_column, pk_indexes
        )

    def _log_delta(
        self,
        base_version: int,
        new_version: int,
        records: Sequence[DeltaRecord],
    ) -> int:
        """Append one observed version step to the feed (no-ops skipped)."""
        if new_version != base_version:
            self._delta_log.record(
                SourceDelta(base_version, new_version, tuple(records))
            )
        return new_version

    # ------------------------------------------------------------------
    # §3: relational schema → OO schema
    # ------------------------------------------------------------------
    def relations(self) -> Tuple[RelationSpec, ...]:
        specs = self._declared if self._declared is not None else self.discover()
        if not specs:
            raise SourceConfigError(f"source {self.name!r} exposes no relations")
        return tuple(specs)

    def relation(self, name: str) -> RelationSpec:
        index = self._relation_index()
        try:
            return index[name]
        except KeyError:
            raise UnknownClassError(name, self.name) from None

    def schema(self, schema_name: str = "") -> Schema:
        """The OO view of the source's relations (cached per name)."""
        target = schema_name or self.name
        with self._lock:
            if self._schema_cache is not None and self._schema_cache[0] == target:
                return self._schema_cache[1]
        schema = Schema(target)
        for spec in self.relations():
            fk_columns = {fk.column for fk in spec.foreign_keys}
            class_def = ClassDef(spec.name)
            for column in spec.columns:
                if column.name in fk_columns:
                    continue
                mapping = self._column_mapping(spec.name, column.name)
                attr_name = mapping.target if mapping else column.name
                attr_type = (
                    mapping.data_type
                    if mapping is not None and mapping.data_type is not None
                    else column.data_type
                )
                class_def.add_attribute(Attribute(attr_name, attr_type))
            for foreign_key in spec.foreign_keys:
                cardinality = (
                    Cardinality.ONE_TO_ONE
                    if foreign_key.column == spec.primary_key
                    else Cardinality.M_TO_ONE
                )
                class_def.add_aggregation(
                    AggregationFunction(
                        name=foreign_key.column,
                        range_class=foreign_key.target_relation,
                        cardinality=cardinality,
                    )
                )
            schema.add_class(class_def)
        schema.validate()
        with self._lock:
            self._schema_cache = (target, schema)
        return schema

    # ------------------------------------------------------------------
    # §3: rows → O-term instances, through the data mappings
    # ------------------------------------------------------------------
    def scan(
        self,
        relation_name: str,
        shard: Optional["ShardSpec"] = None,
        where: Selection = (),
    ) -> List[ObjectInstance]:
        """Transform the current rows of *relation_name* into instances.

        Tuples are numbered 1..n in storage order, so the same logical
        federation materialized through different backends issues
        identical OIDs — the property the cross-backend parity suite
        pins down.  With a *shard* coordinate, a row's number alone
        decides whether that shard owns its OID, so rows owned elsewhere
        are skipped before any coercion, mapping or FK lookup.

        A *where* selection ``((attribute, constant), ...)`` names
        attributes of the OO view.  Each selected column of a row is
        run through the same translation the row would get (coercion,
        data mapping, NULL default, type check) and the row is kept
        only when every translated value equals its constant — after
        the shard test, before the row is materialized.  The result is
        the full scan filtered on the translated values, in order and
        with the same OIDs.  A backend may also drop rows in storage
        first (:meth:`fetch_selected_rows`); unknown attributes and
        aggregations select nothing away.
        """
        spec = self.relation(relation_name)
        plans = self._attribute_plans(spec)
        fk_by_column = {fk.column: fk for fk in spec.foreign_keys}
        pk_indexes = {
            fk.target_relation: self._pk_index(fk.target_relation)
            for fk in spec.foreign_keys
        }
        tests = self._selection_tests(plans, where)
        fetched = (
            self.fetch_selected_rows(spec, tests)
            if tests
            else self.fetch_numbered_rows(spec)
        )
        rows = fetched
        if shard is not None:
            owns = shard.number_predicate(
                self.agent, self.system, self.name, spec.name
            )
            rows = ((number, row) for number, row in rows if owns(number))
        if tests:
            rows = (
                (number, row)
                for number, row in rows
                if all(
                    self._translate(row.get(plan.column), plan, spec.name, number)
                    == constant
                    for plan, constant in tests
                )
            )
        try:
            return [
                self._materialize_row(
                    spec, number, row, plans, fk_by_column, pk_indexes
                )
                for number, row in rows
            ]
        finally:
            # a row that fails to translate leaves the fetch suspended
            # mid-read (a sqlite cursor holds the file's shared lock);
            # the raised error's traceback would keep it alive
            _close(fetched)

    def fetch_selected_rows(
        self, relation: RelationSpec, tests: Sequence[SelectionTest]
    ) -> Iterator[Tuple[int, Mapping[str, Any]]]:
        """``(tuple number, raw row)`` pairs that may pass *tests*.

        Every row whose translated values pass must be yielded, with
        its :meth:`fetch_numbered_rows` number and in that order; the
        exact test runs afterwards on what is yielded.  The default
        yields every row; a backend that can drop rows in storage
        overrides this.
        """
        return self.fetch_numbered_rows(relation)

    def _materialize_row(
        self,
        spec: RelationSpec,
        number: int,
        row: Mapping[str, Any],
        plans: Tuple[_AttributePlan, ...],
        fk_by_column: Mapping[str, ForeignKey],
        pk_indexes: Mapping[str, Mapping[Any, OID]],
    ) -> ObjectInstance:
        """One raw row → one mapped O-term (the body of :meth:`scan`)."""
        oid = OID(self.agent, self.system, self.name, spec.name, number)
        attributes: Dict[str, Any] = {}
        for plan in plans:
            attributes[plan.target] = self._translate(
                row.get(plan.column), plan, spec.name, number
            )
        aggregations: Dict[str, OID] = {}
        for column, foreign_key in fk_by_column.items():
            raw = row.get(column)
            if raw is None:
                continue
            key = coerce_value(
                raw,
                spec.column(column).data_type,
                source=self.name,
                relation=spec.name,
                column=column,
            )
            target_oid = pk_indexes[foreign_key.target_relation].get(key)
            if target_oid is not None:
                # dangling references stay unresolved — autonomy: a
                # federation must not reject a component's data
                aggregations[column] = target_oid
        return ObjectInstance(oid, spec.name, attributes, aggregations)

    def count_rows(self, relation_name: str) -> int:
        """Row count of one relation; backends may override with a fast path."""
        spec = self.relation(relation_name)
        return sum(1 for _ in self.fetch_rows(spec))

    # ------------------------------------------------------------------
    def database(self, schema_name: str = "") -> "SourceDatabase":
        """Wrap this adapter as a hostable component store."""
        return SourceDatabase(self, schema_name)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _relation_index(self) -> Dict[str, RelationSpec]:
        with self._lock:
            if self._relation_cache is None:
                self._relation_cache = {spec.name: spec for spec in self.relations()}
            return self._relation_cache

    def _column_mapping(self, relation: str, column: str) -> Optional[ColumnMapping]:
        for mapping in self._mappings.get(relation, ()):
            if mapping.column == column:
                return mapping
        return None

    def _attribute_plans(self, spec: RelationSpec) -> Tuple[_AttributePlan, ...]:
        with self._lock:
            cached = self._plan_cache.get(spec.name)
            if cached is not None:
                return cached
        fk_columns = {fk.column for fk in spec.foreign_keys}
        declared = {m.column for m in self._mappings.get(spec.name, ())}
        unknown = declared - set(spec.column_names)
        if unknown:
            raise SourceConfigError(
                f"source {self.name!r}, relation {spec.name!r}: mappings "
                f"reference unknown columns {sorted(unknown)}"
            )
        plans: List[_AttributePlan] = []
        for column in spec.columns:
            if column.name in fk_columns:
                continue
            mapping = self._column_mapping(spec.name, column.name)
            if mapping is None:
                plans.append(
                    _AttributePlan(
                        column.name,
                        column.name,
                        column.data_type,
                        column.data_type,
                        _IDENTITY,
                        None,
                    )
                )
            else:
                plans.append(
                    _AttributePlan(
                        column.name,
                        mapping.target,
                        column.data_type,
                        mapping.data_type or column.data_type,
                        mapping.mapping,
                        mapping.default,
                    )
                )
        result = tuple(plans)
        with self._lock:
            self._plan_cache[spec.name] = result
        return result

    @staticmethod
    def _selection_tests(
        plans: Sequence[_AttributePlan], where: Selection
    ) -> Tuple[SelectionTest, ...]:
        """Pair each selected attribute with its translation plan."""
        if not where:
            return ()
        by_target = {plan.target: plan for plan in plans}
        return tuple(
            (by_target[name], constant)
            for name, constant in where
            if name in by_target
        )

    def _translate(
        self, raw: Any, plan: _AttributePlan, relation: str, number: int
    ) -> Any:
        coerced = coerce_value(
            raw, plan.raw_type, source=self.name, relation=relation, column=plan.column
        )
        value = plan.mapping.translate(coerced)
        if value is None:
            value = plan.default
        if not conforms(value, plan.target_type):
            raise SourceFormatError(
                self.name,
                relation,
                f"row {number}, column {plan.column!r}: mapped value {value!r} "
                f"does not conform to {plan.target_type}",
            )
        return value

    def _pk_index(self, relation_name: str) -> Dict[Any, OID]:
        version = self.source_version()
        with self._lock:
            cached = self._pk_cache.get(relation_name)
            if cached is not None and cached[0] == version:
                return cached[1]
        spec = self.relation(relation_name)
        pk_type = spec.column(spec.primary_key).data_type
        index: Dict[Any, OID] = {}
        rows = self.fetch_numbered_rows(spec)
        try:
            for number, row in rows:
                key = coerce_value(
                    row.get(spec.primary_key),
                    pk_type,
                    source=self.name,
                    relation=spec.name,
                    column=spec.primary_key,
                )
                if key is not None:
                    index[key] = OID(
                        self.agent, self.system, self.name, spec.name, number
                    )
        finally:
            _close(rows)
        with self._lock:
            self._pk_cache[relation_name] = (version, index)
        return index


_IDENTITY = DefaultMapping()


def _close(rows: Iterator[Any]) -> None:
    """Close a fetch iterator that can be closed (a generator)."""
    close = getattr(rows, "close", None)
    if close is not None:
        close()


class MemorySourceAdapter(SourceAdapter):
    """Rows held in memory — the parity baseline and unit-test backend.

    The same declared relations and mappings as the disk backends, with
    an explicit :meth:`bump` standing in for an *unobserved* file
    modification (no delta is logged, so caches hit the gap fallback).
    The write helpers (:meth:`insert`, :meth:`update_row`,
    :meth:`delete_row`) log mapped delta records; deleted slots become
    tombstones so surviving rows keep their tuple numbers — and their
    OIDs — which is what makes a delete patchable at all.
    """

    kind = "memory"

    def __init__(
        self,
        name: str,
        rows: Mapping[str, Sequence[Mapping[str, Any]]],
        relations: Sequence[RelationSpec],
        mappings: Optional[Mapping[str, Sequence[ColumnMapping]]] = None,
        agent: str = "agent1",
        system: str = "",
    ) -> None:
        super().__init__(
            name, agent=agent, system=system, relations=relations, mappings=mappings
        )
        for spec in relations:
            for row in rows.get(spec.name, ()):
                self._writable(spec.name, row)
        # a slot holds the raw row dict, or None once deleted (tombstone)
        self._rows: Dict[str, List[Optional[Dict[str, Any]]]] = {
            relation: [dict(row) for row in relation_rows]
            for relation, relation_rows in rows.items()
        }
        self._version = 1

    def discover(self) -> Tuple[RelationSpec, ...]:
        assert self._declared is not None
        return self._declared

    def fetch_rows(self, relation: RelationSpec) -> Iterator[Mapping[str, Any]]:
        for row in self._rows.get(relation.name, []):
            if row is not None:
                yield row

    def fetch_numbered_rows(
        self, relation: RelationSpec
    ) -> Iterator[Tuple[int, Mapping[str, Any]]]:
        # tombstones keep their slot, so numbering (and OIDs) survive
        # deletes; live rows simply skip the dead slots
        for number, row in enumerate(self._rows.get(relation.name, []), start=1):
            if row is not None:
                yield number, row

    def source_version(self) -> int:
        return self._version

    def bump(self) -> int:
        """Simulate an *unobserved* component-side write: the version
        moves but no delta is logged, so cached extents can only be
        refreshed by the gap fallback (targeted eviction + rescan)."""
        self._version += 1
        return self._version

    def _slot(self, relation_name: str, number: int) -> Dict[str, Any]:
        rows = self._rows.get(relation_name, [])
        if not 1 <= number <= len(rows):
            raise SourceConfigError(
                f"source {self.name!r}, relation {relation_name!r}: "
                f"no row numbered {number}"
            )
        row = rows[number - 1]
        if row is None:
            raise SourceConfigError(
                f"source {self.name!r}, relation {relation_name!r}: "
                f"row {number} was deleted"
            )
        return row

    def insert(self, relation_name: str, row: Mapping[str, Any]) -> int:
        """Append one raw row, bump the version and log the delta."""
        spec = self._writable(relation_name, row)
        rows = self._rows.setdefault(relation_name, [])
        number = len(rows) + 1
        # translate first: a row the §3 coercion refuses is never stored
        instance = self._lift_row(spec, number, row)
        rows.append(dict(row))
        base, self._version = self._version, self._version + 1
        records = [
            DeltaRecord("insert", spec.name, self._oid(spec.name, number), instance)
        ]
        # a new pk value may resolve previously-dangling references in
        # relations that point here; their extents need a rescan
        records.extend(
            DeltaRecord("rescan", referrer)
            for referrer in self._referrers(spec.name)
        )
        return self._log_delta(base, self._version, records)

    def update_row(
        self, relation_name: str, number: int, changes: Mapping[str, Any]
    ) -> int:
        """Merge *changes* into row *number* and log the update delta."""
        spec = self._writable(relation_name, changes)
        row = self._slot(relation_name, number)
        pk_moved = (
            spec.primary_key in changes
            and changes[spec.primary_key] != row.get(spec.primary_key)
        )
        instance = self._lift_row(spec, number, {**row, **changes})
        row.update(changes)
        base, self._version = self._version, self._version + 1
        records = [
            DeltaRecord("update", spec.name, self._oid(spec.name, number), instance)
        ]
        if pk_moved:
            records.extend(
                DeltaRecord("rescan", referrer)
                for referrer in self._referrers(spec.name)
            )
        return self._log_delta(base, self._version, records)

    def delete_row(self, relation_name: str, number: int) -> int:
        """Tombstone row *number* and log the delete delta."""
        spec = self.relation(relation_name)
        self._slot(relation_name, number)  # validates it exists, undeleted
        self._rows[relation_name][number - 1] = None
        base, self._version = self._version, self._version + 1
        records = [DeltaRecord("delete", spec.name, self._oid(spec.name, number))]
        # references into the deleted row dangle on rescan; referrer
        # extents must not keep serving the resolved OID
        records.extend(
            DeltaRecord("rescan", referrer)
            for referrer in self._referrers(spec.name)
        )
        return self._log_delta(base, self._version, records)


class SourceDatabase:
    """A :class:`~repro.model.store.ComponentStore` over a source adapter.

    Every extent/value-set call re-runs the §3 transformation against
    the rows as stored *now*; the federation's extent cache keyed on
    :attr:`version` decides when that work can be skipped.  The schema
    the transformation produces is flat (relations have no is-a links),
    so a class's full extension equals its direct extent.
    """

    def __init__(self, adapter: SourceAdapter, schema_name: str = "") -> None:
        self.adapter = adapter
        self.schema = adapter.schema(schema_name)

    @property
    def version(self) -> int:
        return self.adapter.source_version()

    def changes_since(self, version: int) -> Optional[Tuple[SourceDelta, ...]]:
        """The adapter's delta chain from *version* (None on a gap) —
        the hook :meth:`FSMAgent.fetch_changes
        <repro.federation.agent.FSMAgent.fetch_changes>` discovers."""
        return self.adapter.changes_since(version)

    # ------------------------------------------------------------------
    def direct_extent(
        self,
        class_name: str,
        shard: Optional["ShardSpec"] = None,
        where: Selection = (),
    ) -> List[ObjectInstance]:
        if class_name not in self.schema:
            raise UnknownClassError(class_name, self.schema.name)
        return self.adapter.scan(class_name, shard, where)

    def extent(
        self, class_name: str, shard: Optional["ShardSpec"] = None
    ) -> List[ObjectInstance]:
        return self.direct_extent(class_name, shard)

    def value_set(self, class_name: str, attribute: str) -> Set[Any]:
        return value_set_of(self.extent(class_name), attribute)
