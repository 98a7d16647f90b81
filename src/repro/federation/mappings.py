"""Data mappings ``F^A_{DB_i,B}`` and same-object resolution (§3).

For each attribute ``A`` of the integrated schema, a data mapping per
component attribute ``B`` records how values correspond.  The paper
names three forms, all implemented here:

* the string ``"default"`` — all actual values of B form a subset of A
  (:class:`DefaultMapping`, identity translation);
* a set of triples ``(a, b; χ)`` with ``χ ∈ [0, 1]`` — fuzzy value
  correspondence (:class:`TripleMapping`), answering both the translated
  values above a degree threshold and the degree itself;
* a simple function ``y = f(x)`` such as ``y = 2.54·x``
  (:class:`FunctionMapping`).

Beyond value translation, Principle 1/3's side condition "oi1 = oi2 (in
terms of data mapping)" needs cross-database *object identity*.
:class:`SameObjectSpec` declares which key attributes identify objects
across two classes (optionally through a value mapping), and
:func:`same_object_facts` turns live extents into the ``same_object``
facts the generated rules consume.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..errors import MappingError
from ..integration.principle_intersection import SAME_OBJECT
from ..logic.engine import FactStore
from ..model.store import ComponentStore


class DataMapping:
    """Base interface: translate a component value into integrated form."""

    def translate(self, value: Any) -> Any:
        raise NotImplementedError

    def translate_set(self, values: Iterable[Any]) -> Set[Any]:
        return {
            translated
            for value in values
            if (translated := self.translate(value)) is not None
        }


class DefaultMapping(DataMapping):
    """``"default"``: B's values are already a subset of A's domain."""

    def translate(self, value: Any) -> Any:
        return value

    def __repr__(self) -> str:
        return "DefaultMapping()"


@dataclasses.dataclass
class TripleMapping(DataMapping):
    """A set of triples ``(a, b; χ)``: b of B corresponds to a of A.

    ``translate`` returns the best-matching ``a`` whose degree meets
    *threshold* (ties broken by higher degree, then by value order for
    determinism); ``degree`` exposes χ for fuzzy-aware callers (ref [5]).
    """

    triples: Tuple[Tuple[Any, Any, float], ...]
    threshold: float = 0.0

    def __post_init__(self) -> None:
        for a, b, chi in self.triples:
            if not 0.0 <= chi <= 1.0:
                raise MappingError(
                    f"correspondence degree must be in [0, 1], got {chi!r} "
                    f"for ({a!r}, {b!r})"
                )

    @classmethod
    def of(cls, *triples: Tuple[Any, Any, float], threshold: float = 0.0) -> "TripleMapping":
        return cls(tuple(triples), threshold)

    def translate(self, value: Any) -> Any:
        best: Optional[Tuple[float, Any]] = None
        for a, b, chi in self.triples:
            if b == value and chi >= self.threshold:
                if best is None or chi > best[0]:
                    best = (chi, a)
        return best[1] if best else None

    def preimage(self, value: Any) -> Tuple[Any, ...]:
        """The distinct ``b`` values of the triples that translate to
        *value*, in triple order.  Any other input translates to None."""
        found: List[Any] = []
        for _a, b, _chi in self.triples:
            if b not in found and self.translate(b) == value:
                found.append(b)
        return tuple(found)

    def degree(self, a: Any, b: Any) -> float:
        """χ for the pair (a, b); 0.0 when unrelated."""
        degrees = [chi for a2, b2, chi in self.triples if a2 == a and b2 == b]
        return max(degrees, default=0.0)


@dataclasses.dataclass
class FunctionMapping(DataMapping):
    """``y = f(x)``, e.g. ``y = 2.54 · x`` for inch→cm conversion."""

    function: Callable[[Any], Any]
    description: str = "y = f(x)"

    def translate(self, value: Any) -> Any:
        if value is None:
            return None
        return self.function(value)

    def __repr__(self) -> str:
        return f"FunctionMapping({self.description})"


class MappingRegistry:
    """All data mappings of a federation, keyed ``F^A_{DB_i, B}``.

    The key is (integrated attribute A, source schema DB_i, source
    attribute B); lookups fall back to :class:`DefaultMapping`, matching
    the paper's most common case.
    """

    def __init__(self) -> None:
        self._mappings: Dict[Tuple[str, str, str], DataMapping] = {}
        self._default = DefaultMapping()
        #: bumped by every :meth:`register`; facts lifted through this
        #: registry are cached per version, so a registration relifts
        self.version = 0

    def register(
        self,
        integrated_attribute: str,
        source_schema: str,
        source_attribute: str,
        mapping: DataMapping,
    ) -> None:
        self._mappings[(integrated_attribute, source_schema, source_attribute)] = mapping
        self.version += 1

    def resolve(
        self, integrated_attribute: str, source_schema: str, source_attribute: str
    ) -> DataMapping:
        return self._mappings.get(
            (integrated_attribute, source_schema, source_attribute), self._default
        )

    def __len__(self) -> int:
        return len(self._mappings)


@dataclasses.dataclass(frozen=True)
class SameObjectSpec:
    """Key-attribute identity across two local classes.

    Objects of ``(left_schema, left_class)`` and ``(right_schema,
    right_class)`` denote the same real-world entity when their key
    attributes agree after translating the right value through *mapping*
    (default: identity).  One spec per intersecting/equivalent class
    pair; social-security numbers in the paper's examples.
    """

    left_schema: str
    left_class: str
    left_key: str
    right_schema: str
    right_class: str
    right_key: str
    mapping: DataMapping = dataclasses.field(default_factory=DefaultMapping)


def same_object_facts(
    specs: Iterable[SameObjectSpec],
    databases: Mapping[str, ComponentStore],
    store: Optional[FactStore] = None,
) -> FactStore:
    """Compute ``same_object(oid1, oid2)`` facts from live extents.

    Facts are emitted symmetrically (both orders) so generated rules may
    test identity in either direction.
    """
    if store is None:
        store = FactStore()
    for spec in specs:
        left_db = databases.get(spec.left_schema)
        right_db = databases.get(spec.right_schema)
        if left_db is None or right_db is None:
            raise MappingError(
                f"same-object spec references unregistered schema "
                f"({spec.left_schema!r} or {spec.right_schema!r})"
            )
        right_index: Dict[Any, List[Any]] = {}
        for instance in right_db.extent(spec.right_class):
            key = spec.mapping.translate(instance.get(spec.right_key))
            if key is not None:
                right_index.setdefault(key, []).append(instance.oid)
        for instance in left_db.extent(spec.left_class):
            key = instance.get(spec.left_key)
            if key is None:
                continue
            for right_oid in right_index.get(key, ()):
                store.add(SAME_OBJECT, (instance.oid, right_oid))
                store.add(SAME_OBJECT, (right_oid, instance.oid))
    return store
