"""The relational column vocabulary (§3).

The paper's component databases are relational systems (the Informix
example) whose schemas are transformed to OO form before integration.
:class:`Column` and :class:`ForeignKey` name a relation's typed columns
and its references; :class:`~repro.sources.RelationSpec` declares a
relation with them, and the :mod:`repro.sources` adapters run the §3
transformation over the rows — each foreign key becomes an aggregation
function toward the referenced relation's class.
"""

from __future__ import annotations

import dataclasses

from ..errors import ModelError
from ..model.datatypes import DataType


@dataclasses.dataclass(frozen=True)
class Column:
    """A typed relational column."""

    name: str
    data_type: DataType = DataType.STRING

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("column name must be non-empty")


@dataclasses.dataclass(frozen=True)
class ForeignKey:
    """``relation.column`` references ``target_relation.target_column``."""

    column: str
    target_relation: str
    target_column: str
