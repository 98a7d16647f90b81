"""Federation architecture (§3, Appendix B of the paper).

FSM-agents hosting component databases (native object stores, or
relational sources that :mod:`repro.sources` adapters transform to OO
form as §3 prescribes), data mappings ``F^A_{DB_i,B}``, same-object identity resolution, fact lifting,
the FSM coordination layer with both Fig 2 multi-schema strategies, and
federated query evaluation via the bottom-up engine or the faithful
Appendix B top-down evaluator.
"""

from .agent import FSMAgent
from .decomposition import LocalSubQuery, QueryPlan, decompose_query, explain
from .evaluation import (
    AgentSource,
    FederationContext,
    FederationEngine,
    evaluate_value_set,
    appendix_b_program,
    inheritance_rules,
    lift_facts,
)
from .fsm import FSM
from .mappings import (
    DataMapping,
    DefaultMapping,
    FunctionMapping,
    MappingRegistry,
    SameObjectSpec,
    TripleMapping,
    same_object_facts,
)
from .query import FederatedQuery
from .relational import Column, ForeignKey

__all__ = [
    "AgentSource",
    "Column",
    "DataMapping",
    "DefaultMapping",
    "FSM",
    "FSMAgent",
    "FederatedQuery",
    "FederationContext",
    "FederationEngine",
    "evaluate_value_set",
    "LocalSubQuery",
    "QueryPlan",
    "decompose_query",
    "explain",
    "ForeignKey",
    "FunctionMapping",
    "MappingRegistry",
    "SameObjectSpec",
    "TripleMapping",
    "appendix_b_program",
    "inheritance_rules",
    "lift_facts",
    "same_object_facts",
]
