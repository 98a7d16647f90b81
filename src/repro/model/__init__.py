"""Object model substrate (§2-§3 of the paper).

Public surface: the six primitive :class:`DataType` values, attribute and
aggregation declarations, :class:`ClassDef` and :class:`Schema`, the
federation OID scheme and the in-memory :class:`ObjectDatabase` store
that substitutes for the Ontos platform.
"""

from .aggregations import AggregationFunction, Cardinality, relaxed
from .attributes import Attribute, ClassType, integer_attribute, string_attribute
from .classes import ClassDef
from .database import ObjectDatabase
from .datatypes import DataType, conforms, default_value
from .instances import ObjectInstance
from .oids import OID, OIDGenerator
from .schema import Schema, VIRTUAL_ROOT, build_hierarchy
from .store import ComponentStore, value_set_of
from .textio import (
    parse_schema,
    parse_schema_file,
    schema_from_dict,
    schema_to_dict,
    schema_to_text,
)

__all__ = [
    "AggregationFunction",
    "Attribute",
    "Cardinality",
    "ClassDef",
    "ClassType",
    "ComponentStore",
    "DataType",
    "OID",
    "OIDGenerator",
    "ObjectDatabase",
    "ObjectInstance",
    "Schema",
    "VIRTUAL_ROOT",
    "build_hierarchy",
    "conforms",
    "default_value",
    "integer_attribute",
    "parse_schema",
    "parse_schema_file",
    "schema_from_dict",
    "schema_to_dict",
    "schema_to_text",
    "relaxed",
    "string_attribute",
    "value_set_of",
]
