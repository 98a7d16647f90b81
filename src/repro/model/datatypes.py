"""Primitive data types of the object model (§2 of the paper).

The paper defines attribute types as drawn from::

    {boolean, integer, real, character, string, date} ∪ type(C)

i.e. an attribute either has one of six primitive types, is typed by
another class of the schema (a *nested* or *complex* attribute), or — in
our "not difficult to extend" reading of §2 — is a *set* of one of those
(multi-valued attributes such as ``interests: {string}`` in Example 6).

This module provides the primitive side: the :class:`DataType` enum, the
:class:`Date` value type (the standard library ``datetime.date`` is
accepted anywhere a ``Date`` is) and conformance checks used by
:mod:`repro.model.instances` when validating objects against their class.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any

from .oids import OID


class DataType(enum.Enum):
    """The six primitive attribute types of the paper's object model."""

    BOOLEAN = "boolean"
    INTEGER = "integer"
    REAL = "real"
    CHARACTER = "character"
    STRING = "string"
    DATE = "date"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def parse(cls, name: str) -> "DataType":
        """Return the data type named *name* (case-insensitive).

        Raises ``ValueError`` for unknown names, listing the valid ones so
        DSL error messages stay actionable.
        """
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(member.value for member in cls)
            raise ValueError(
                f"unknown primitive type {name!r}; expected one of: {valid}"
            ) from None


#: Python types accepted for each primitive type.  ``bool`` is checked
#: before ``int`` in :func:`conforms` because bool is an int subclass.
_PYTHON_TYPES = {
    DataType.BOOLEAN: (bool,),
    DataType.INTEGER: (int,),
    DataType.REAL: (float, int),
    DataType.CHARACTER: (str,),
    DataType.STRING: (str,),
    DataType.DATE: (datetime.date,),
}


def conforms(value: Any, data_type: DataType) -> bool:
    """Return True when *value* is a legal instance of *data_type*.

    ``None`` conforms to every type: the paper's data mappings explicitly
    produce ``Null`` when no correspondence exists, so nullability is part
    of the model rather than an error.
    """
    if value is None:
        return True
    if isinstance(value, OID):  # an identifier, though it subclasses str
        return False
    if data_type is DataType.BOOLEAN:
        return isinstance(value, bool)
    if data_type is DataType.INTEGER:
        return isinstance(value, int) and not isinstance(value, bool)
    if data_type is DataType.CHARACTER:
        return isinstance(value, str) and len(value) == 1
    accepted = _PYTHON_TYPES[data_type]
    if data_type is DataType.REAL and isinstance(value, bool):
        return False
    return isinstance(value, accepted)


def default_value(data_type: DataType) -> Any:
    """Return a neutral value of *data_type*, used by workload generators."""
    return {
        DataType.BOOLEAN: False,
        DataType.INTEGER: 0,
        DataType.REAL: 0.0,
        DataType.CHARACTER: " ",
        DataType.STRING: "",
        DataType.DATE: datetime.date(1970, 1, 1),
    }[data_type]
