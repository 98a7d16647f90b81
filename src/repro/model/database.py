"""An in-memory object database: a schema plus class extents (§2, §3).

This is the Ontos-substitute store.  It keeps, per class, the set of
:class:`~repro.model.instances.ObjectInstance` objects *directly* created
in that class; the *extension* of a class (the paper's ``{<o : C>}``)
additionally includes all instances of subclasses, because
``<C : C'>  iff  {<o:C>} ⊆ {<o':C'>}``.

The store deliberately stays simple — insert, lookup by OID, extent
scans, attribute selection — because the federation layer (autonomy!)
only ever asks component databases these questions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Union

from ..errors import InstanceError, UnknownClassError
from ..logic.engine import iter_value_elements
from .instances import ObjectInstance
from .oids import OID, OIDGenerator
from .schema import Schema
from .store import Selection, value_set_of

if TYPE_CHECKING:
    from ..runtime.sharding import ShardSpec


def _selected(instance: ObjectInstance, where: Selection) -> bool:
    """Does *instance* hold every selected value?  Elements are the ones
    lifting emits for the attribute (:func:`iter_value_elements`), so a
    kept instance is exactly one whose lifted facts can match."""
    return all(
        any(
            descriptor == name and element == constant
            for descriptor, element in iter_value_elements(name, instance.get(name))
        )
        for name, constant in where
    )


class ObjectDatabase:
    """Schema + extents, with OIDs issued by the paper's §3 scheme.

    Parameters
    ----------
    schema:
        The (validated) schema instances must conform to.
    agent, system:
        The FSM-agent and DBMS names baked into issued OIDs; they default
        to generic values so unit tests can build a store in one line.
    validate:
        When True (default) every inserted instance is checked against
        its class definition.
    """

    def __init__(
        self,
        schema: Schema,
        agent: str = "agent",
        system: str = "pyoodb",
        validate: bool = True,
    ) -> None:
        schema.validate()
        self.schema = schema
        self._validate = validate
        self._generator = OIDGenerator(agent, system, schema.name)
        self._extents: Dict[str, List[ObjectInstance]] = {
            name: [] for name in schema.class_names
        }
        self._by_oid: Dict[OID, ObjectInstance] = {}
        #: monotonic mutation counter; caches key their entries to it so a
        #: write to the component database invalidates stale extents.
        self.version = 0

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def insert(
        self,
        class_name: str,
        attributes: Optional[Mapping[str, Any]] = None,
        aggregations: Optional[Mapping[str, Union[OID, Iterable[OID]]]] = None,
    ) -> ObjectInstance:
        """Create, validate, store and return a new instance of *class_name*."""
        if class_name not in self.schema:
            raise UnknownClassError(class_name, self.schema.name)
        oid = self._generator.next_oid(class_name)
        instance = ObjectInstance(oid, class_name, attributes, aggregations)
        if self._validate:
            instance.validate_against(self.schema.effective_class(class_name))
        self._extents[class_name].append(instance)
        self._by_oid[oid] = instance
        self.version += 1
        return instance

    def insert_many(
        self, class_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> List[ObjectInstance]:
        """Insert one instance per attribute mapping in *rows*."""
        return [self.insert(class_name, row) for row in rows]

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def by_oid(self, oid: OID) -> ObjectInstance:
        """Dereference *oid*; this is what aggregation functions do."""
        try:
            return self._by_oid[oid]
        except KeyError:
            raise InstanceError(f"no object with OID {oid}") from None

    def get(self, oid: OID) -> Optional[ObjectInstance]:
        return self._by_oid.get(oid)

    def direct_extent(
        self,
        class_name: str,
        shard: Optional["ShardSpec"] = None,
        where: Selection = (),
    ) -> List[ObjectInstance]:
        """Instances created directly in *class_name* (no subclasses);
        with *shard*, only those that shard owns; with *where*, only
        those holding, for every ``(attribute, constant)`` pair, a value
        element equal to the constant (NULL never matches)."""
        if class_name not in self.schema:
            raise UnknownClassError(class_name, self.schema.name)
        instances = self._extents[class_name]
        if shard is not None:
            instances = shard.filter_instances(instances)
        if where:
            return [instance for instance in instances if _selected(instance, where)]
        return list(instances)

    def extent(
        self, class_name: str, shard: Optional["ShardSpec"] = None
    ) -> List[ObjectInstance]:
        """The full extension ``{<o : C>}`` including subclass instances;
        with *shard*, only those that shard owns."""
        if class_name not in self.schema:
            raise UnknownClassError(class_name, self.schema.name)
        names = [class_name] + sorted(self.schema.descendants(class_name))
        result: List[ObjectInstance] = []
        for name in names:
            result.extend(self._extents[name])
        if shard is not None:
            return shard.filter_instances(result)
        return result

    def select(
        self, class_name: str, predicate: Callable[[ObjectInstance], bool]
    ) -> List[ObjectInstance]:
        """Extent scan with a Python predicate — the local query interface."""
        return [obj for obj in self.extent(class_name) if predicate(obj)]

    def value_set(self, class_name: str, attribute: str) -> Set[Any]:
        """``value_set(att)``: the largest non-null subset of the domain
        of *attribute* w.r.t. the current database state (§5).

        Multivalued attribute values are flattened into the set.
        """
        return value_set_of(self.extent(class_name), attribute)

    def follow(
        self, instance: ObjectInstance, aggregation: str
    ) -> List[ObjectInstance]:
        """Apply an aggregation function: dereference its target OID(s)."""
        target = instance.get(aggregation)
        if target is None:
            return []
        if isinstance(target, OID):
            return [self.by_oid(target)]
        return [self.by_oid(oid) for oid in sorted(target)]

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_oid)

    def __iter__(self) -> Iterator[ObjectInstance]:
        return iter(self._by_oid.values())

    def counts(self) -> Dict[str, int]:
        """Direct-extent cardinality per class."""
        return {name: len(objs) for name, objs in self._extents.items()}
