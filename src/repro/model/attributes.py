"""Attribute declarations of the object model (§2).

An attribute of a class has a name and a type.  Following the paper's
type definition::

    type(C) = <a1: type1, ..., ak: typek, Agg1 with cc1, ...>

``type_i`` is either a primitive :class:`~repro.model.datatypes.DataType`,
a reference to another class of the schema (a *complex* attribute, e.g.
``author: <name: string, birthday: date>`` in the Book/Author examples),
or a set of either (multi-valued, e.g. ``interests: {string}``).

Complex attributes are what make the paper's *paths* (Definition 4.1)
non-trivial: ``Book.author.birthday`` walks through the class-typed
attribute ``author``.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from ..errors import ModelError
from .datatypes import DataType


@dataclasses.dataclass(frozen=True)
class ClassType:
    """An attribute type that refers to a class of the same schema.

    Only the class *name* is stored; resolution happens against the
    owning :class:`~repro.model.schema.Schema`, which lets schemas be
    declared in any order and serialized trivially.
    """

    class_name: str

    def __post_init__(self) -> None:
        if not self.class_name:
            raise ModelError("ClassType requires a non-empty class name")

    def __str__(self) -> str:
        return self.class_name


AttributeValueType = Union[DataType, ClassType]


@dataclasses.dataclass(frozen=True)
class Attribute:
    """A named attribute of a class.

    Parameters
    ----------
    name:
        Attribute name, unique within its class (shared with aggregation
        functions — the paper treats both as components of ``type(C)``).
    value_type:
        A :class:`DataType` for primitive attributes or a
        :class:`ClassType` for complex (nested) attributes.
    multivalued:
        True for set-valued attributes such as ``brothers: {string}``.
    """

    name: str
    value_type: AttributeValueType
    multivalued: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("attribute name must be non-empty")
        if not isinstance(self.value_type, (DataType, ClassType)):
            raise ModelError(
                f"attribute {self.name!r} has invalid type "
                f"{self.value_type!r}; expected DataType or ClassType"
            )

    @property
    def is_complex(self) -> bool:
        """True when the attribute's type is another class."""
        return isinstance(self.value_type, ClassType)

    def type_name(self) -> str:
        """The printable type, ``{...}``-wrapped when multivalued."""
        inner = str(self.value_type)
        return "{" + inner + "}" if self.multivalued else inner

    def __str__(self) -> str:
        return f"{self.name}: {self.type_name()}"


def string_attribute(name: str, multivalued: bool = False) -> Attribute:
    """Shorthand for the most common attribute kind in the paper."""
    return Attribute(name, DataType.STRING, multivalued=multivalued)


def integer_attribute(name: str, multivalued: bool = False) -> Attribute:
    """Shorthand for an integer attribute."""
    return Attribute(name, DataType.INTEGER, multivalued=multivalued)
