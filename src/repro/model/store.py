"""The component-store interface FSM-agents host (§3).

An FSM-agent does not care how a component database stores its data —
an in-memory :class:`~repro.model.database.ObjectDatabase` or a
relational source adapter from :mod:`repro.sources`.  It only ever asks the narrow set of questions the
federation layer is allowed to ask (autonomy, Appendix B): the exported
schema, class extents, value sets, and a *version* the extent cache can
key freshness to.  :class:`ComponentStore` is that structural contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Protocol, Set, Tuple

from .instances import ObjectInstance
from .schema import Schema

if TYPE_CHECKING:  # the shard coordinate only flows through as a value
    from ..runtime.sharding import ShardSpec

#: an equality selection in a component's local vocabulary:
#: ``((attribute, constant), ...)``, every pair must hold
Selection = Tuple[Tuple[str, Any], ...]


def describe_selection(where: Selection) -> str:
    """``attr=const, ...`` — how plans and scan descriptions print one."""
    return ", ".join(f"{name}={value!r}" for name, value in where)


class ComponentStore(Protocol):
    """What a hosted component database must answer.

    ``version`` identifies the current state of the underlying data; the
    extent cache compares versions by equality, so any value that changes
    when the data changes (a mutation counter, a file fingerprint) works.

    An extent call may carry a *shard* coordinate: the store then
    returns only the instances that shard owns
    (:meth:`~repro.runtime.sharding.ShardSpec.filter_instances` of the
    whole extent, in the same order), and is free to skip the work for
    the rest.

    A ``direct_extent`` call may also carry a *where* selection: the
    store may then return any sub-list of the (shard's) extent, in
    extent order, that keeps every instance whose attribute value
    equals each constant — so it may skip materializing the rest, or
    ignore *where* altogether.
    """

    @property
    def schema(self) -> Schema: ...

    @property
    def version(self) -> int: ...

    def direct_extent(
        self,
        class_name: str,
        shard: Optional["ShardSpec"] = None,
        where: Selection = (),
    ) -> List[ObjectInstance]: ...

    def extent(
        self, class_name: str, shard: Optional["ShardSpec"] = None
    ) -> List[ObjectInstance]: ...

    def value_set(self, class_name: str, attribute: str) -> Set[Any]: ...


def value_set_of(instances: Iterable[ObjectInstance], attribute: str) -> Set[Any]:
    """``value_set(att)`` over *instances*: the non-null values of
    *attribute* (§5), multivalued values flattened into the set."""
    values: Set[Any] = set()
    for instance in instances:
        value = instance.get(attribute)
        if value is None:
            continue
        if isinstance(value, frozenset):
            values.update(v for v in value if v is not None)
        else:
            values.add(value)
    return values
