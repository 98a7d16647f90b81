"""Global object identifiers (§3).

Every datum of a component database must be uniquely identifiable in the
federation without being moved.  The paper's scheme assigns each tuple of
a (transformed) relation an OID of the form::

    <FSM-agent name>.<database system name>.<database name>.<relation name>.<integer>

e.g. ``FSMagent1.informix.PatientDB.patient-records.5`` for the fifth
tuple of relation ``patient-records``, and prefixes attribute values with
the analogous five-part attribute path.  :class:`OID` models the tuple
identifier; :func:`attribute_ref` produces the attribute prefix.

Component names may not contain the separator ``.`` — the paper uses
plain concatenation, which would be ambiguous otherwise; we validate
instead of guessing.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Dict, Iterator, Tuple

from ..errors import OIDError

SEPARATOR = "."

_FIELDS = ("agent", "system", "database", "relation")


def _check_component(field: str, value: str) -> None:
    if not value:
        raise OIDError(f"OID component {field!r} must be non-empty")
    if SEPARATOR in value:
        raise OIDError(
            f"OID component {field!r} may not contain {SEPARATOR!r}: {value!r}"
        )


class OID(str):
    """A federation-wide object identifier.

    Attributes mirror the five dotted parts of the paper's scheme:
    *agent*, *system*, *database*, *relation* and the tuple *number*.

    An OID is stored as its dotted string: a ``str`` subclass with no
    instance attributes, so hashing one runs in C (``str.__hash__``,
    cached on the object) and depends on its value, never its address.
    The fact indexes and per-object records of
    :class:`~repro.logic.engine.FactStore` key on OIDs, so a probe calls
    no Python code.  It is not a tuple: an OID equals only another OID
    with the same parts, never its dotted string or a plain 5-tuple.
    OIDs order by ``(agent, system, database, relation, number)``, the
    number as a number; each part is read back from the string.
    """

    __slots__ = ()
    __hash__ = str.__hash__

    def __new__(
        cls, agent: str, system: str, database: str, relation: str, number: int
    ) -> "OID":
        for field, value in zip(_FIELDS, (agent, system, database, relation)):
            _check_component(field, value)
        if number < 0:
            raise OIDError(f"OID number must be non-negative, got {number}")
        return super().__new__(
            cls, SEPARATOR.join((agent, system, database, relation, str(number)))
        )

    @property
    def agent(self) -> str:
        return self.split(SEPARATOR, 1)[0]

    @property
    def system(self) -> str:
        return self.split(SEPARATOR, 2)[1]

    @property
    def database(self) -> str:
        return self.split(SEPARATOR, 3)[2]

    @property
    def relation(self) -> str:
        return self.split(SEPARATOR, 4)[3]

    @property
    def number(self) -> int:
        return int(self.rpartition(SEPARATOR)[2])

    def parts(self) -> Tuple[str, str, str, str, int]:
        """``(agent, system, database, relation, number)`` in one split."""
        agent, system, database, relation, number = self.split(SEPARATOR)
        return agent, system, database, relation, int(number)

    def __repr__(self) -> str:
        agent, system, database, relation, number = self.parts()
        return (
            f"OID(agent={agent!r}, system={system!r}, database={database!r}, "
            f"relation={relation!r}, number={number!r})"
        )

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        return OID, self.parts()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OID):
            return str.__eq__(self, other)
        # a dotted string is not an OID (str.__eq__ would say it is)
        return False if isinstance(other, str) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def _order(self, other: object, compare: Callable[[Any, Any], bool]) -> bool:
        if isinstance(other, OID):
            return compare(self.parts(), other.parts())
        if isinstance(other, str):  # str's own ordering would accept it
            raise TypeError(f"an OID does not order against a str: {other!r}")
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        return self._order(other, operator.lt)

    def __le__(self, other: object) -> bool:
        return self._order(other, operator.le)

    def __gt__(self, other: object) -> bool:
        return self._order(other, operator.gt)

    def __ge__(self, other: object) -> bool:
        return self._order(other, operator.ge)

    @classmethod
    def parse(cls, text: str) -> "OID":
        """Parse the dotted string form back into an :class:`OID`."""
        parts = text.split(SEPARATOR)
        if len(parts) != 5:
            raise OIDError(
                f"an OID has exactly 5 dotted components, got {len(parts)}: {text!r}"
            )
        agent, system, database, relation, number_text = parts
        try:
            number = int(number_text)
        except ValueError:
            raise OIDError(f"OID number must be an integer, got {number_text!r}") from None
        return cls(agent, system, database, relation, number)

    def attribute_ref(self, attribute: str) -> str:
        """The implicit prefix string for *attribute* values (§3).

        ``<agent>.<system>.<database>.<relation>.<attribute>`` — note the
        paper replaces the tuple number with the attribute name here.
        """
        _check_component("attribute", attribute)
        return self.rpartition(SEPARATOR)[0] + SEPARATOR + attribute

    def same_source(self, other: "OID") -> bool:
        """True when both OIDs come from the same relation of the same DB."""
        return self.parts()[:4] == other.parts()[:4]


class OIDGenerator:
    """Numbers tuples "in the normal way" per relation (§3).

    One generator is owned by each local store; it hands out
    monotonically increasing numbers per relation so OIDs stay stable
    across the lifetime of a federation session.
    """

    def __init__(self, agent: str, system: str, database: str) -> None:
        for field, value in zip(("agent", "system", "database"), (agent, system, database)):
            _check_component(field, value)
        self.agent = agent
        self.system = system
        self.database = database
        self._counters: Dict[str, Iterator[int]] = {}

    def next_oid(self, relation: str) -> OID:
        """The next OID for a tuple of *relation* (numbers start at 1)."""
        _check_component("relation", relation)
        counter = self._counters.setdefault(relation, itertools.count(1))
        return OID(self.agent, self.system, self.database, relation, next(counter))

    def issued(self) -> Tuple[str, ...]:
        """Relations for which at least one OID was issued."""
        return tuple(self._counters)
