"""Exception hierarchy shared by every subpackage.

All errors raised by this library derive from :class:`ReproError`, so a
caller can catch one type to handle anything the integration pipeline
signals.  Subpackages refine the hierarchy:

* :class:`ModelError` — malformed schemas, classes, instances or OIDs.
* :class:`LogicError` — ill-formed terms, rules or substitutions.
* :class:`AssertionSpecError` — invalid correspondence assertions.
* :class:`IntegrationError` — failures while applying the integration
  principles or running the integration algorithms.
* :class:`FederationError` — agent registration, data-mapping and query
  evaluation failures.
* :class:`ServiceError` — federation query service failures (unknown
  tenants, malformed request payloads, shutdown refusals).
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ModelError(ReproError):
    """A schema, class, attribute, instance or OID is malformed."""


class UnknownClassError(ModelError):
    """A class name was referenced that the schema does not define."""

    def __init__(self, class_name: str, schema_name: str = "") -> None:
        where = f" in schema {schema_name!r}" if schema_name else ""
        super().__init__(f"unknown class {class_name!r}{where}")
        self.class_name = class_name
        self.schema_name = schema_name


class UnknownAttributeError(ModelError):
    """An attribute name was referenced that its class does not define."""

    def __init__(self, attribute: str, class_name: str) -> None:
        super().__init__(
            f"class {class_name!r} has no attribute or aggregation {attribute!r}"
        )
        self.attribute = attribute
        self.class_name = class_name


class DuplicateDefinitionError(ModelError):
    """A class, attribute or aggregation function was defined twice."""


class CycleError(ModelError):
    """The is-a hierarchy of a schema contains a cycle."""


class InstanceError(ModelError):
    """An object instance does not conform to its class type."""


class OIDError(ModelError):
    """A global object identifier is malformed."""


class LogicError(ReproError):
    """A term, atom, rule or substitution is ill-formed."""


class SafetyError(LogicError):
    """A generated rule is not safe / range-restricted / allowed."""


class EvaluationError(LogicError):
    """Rule evaluation failed (unknown predicate, unstratifiable negation...)."""


class AssertionSpecError(ReproError):
    """A correspondence assertion is invalid or inconsistent."""


class PathError(AssertionSpecError):
    """A dotted path does not resolve against its schema."""


class AssertionParseError(AssertionSpecError):
    """The textual assertion DSL could not be parsed."""

    def __init__(self, message: str, line_no: int = 0, line: str = "") -> None:
        prefix = f"line {line_no}: " if line_no else ""
        suffix = f" (in {line!r})" if line else ""
        super().__init__(f"{prefix}{message}{suffix}")
        self.line_no = line_no
        self.line = line


class AssertionConflictError(AssertionSpecError):
    """Two assertions about the same pair of concepts contradict each other."""


class IntegrationError(ReproError):
    """An integration principle or algorithm failed."""


class DecompositionError(IntegrationError):
    """A derivation assertion could not be decomposed (Principle 5 pre-step)."""


class LatticeError(IntegrationError):
    """A cardinality constraint is not a member of the constraint lattice."""


class FederationError(ReproError):
    """Agent registration, data mapping or federated query processing failed."""


class RegistrationError(FederationError):
    """A component database or agent registration is invalid."""


class MappingError(FederationError):
    """A data mapping is malformed or cannot translate a value."""


class QueryError(FederationError):
    """A global query is malformed or references unknown concepts."""


class RuntimeFederationError(FederationError):
    """The federation runtime could not complete an agent operation."""


class TransportError(RuntimeFederationError):
    """An agent call failed in transit (network fault, dropped reply)."""


class AgentTimeoutError(TransportError):
    """An agent call exceeded the per-call timeout budget."""

    def __init__(self, agent: str, timeout: float) -> None:
        super().__init__(f"agent {agent!r} timed out after {timeout:.3f}s")
        self.agent = agent
        self.timeout = timeout


class SourceError(TransportError):
    """A disk-backed component source failed while serving a scan.

    Subclassing :class:`TransportError` deliberately puts source faults
    on the executor's retry / circuit-breaker / lost-granule path: a
    locked sqlite file or a truncated CSV row degrades exactly like a
    dropped network reply — per granule, typed, never silent.
    """


class SourceUnavailableError(SourceError):
    """The source container cannot be opened (missing, locked, corrupt)."""


class SourceFormatError(SourceError):
    """A row or record inside the source does not match its declared shape."""

    def __init__(self, source: str, relation: str, detail: str) -> None:
        super().__init__(f"source {source!r}, relation {relation!r}: {detail}")
        self.source = source
        self.relation = relation
        self.detail = detail


class SourceConfigError(FederationError):
    """A source manifest or adapter specification is invalid."""


class CircuitOpenError(RuntimeFederationError):
    """An agent's circuit breaker is open; calls fast-fail until reset.

    *last_error* is the failure of an earlier attempt of the same call
    when the circuit tripped mid-retry; the message keeps it.
    """

    def __init__(self, agent: str, last_error: Optional[BaseException] = None) -> None:
        message = f"agent {agent!r} circuit is open (persistent failures)"
        if last_error is not None:
            message += f"; last error: {last_error}"
        super().__init__(message)
        self.agent = agent
        self.last_error = last_error


class ShardMergeError(RuntimeFederationError):
    """A shard slice carried a value its merge cannot key by OID.

    The shard merge deduplicates overlapping granules on each
    instance's ``.oid``; a value without one cannot be keyed, and
    falling back to hashing the object itself would silently drop
    distinct-but-equal facts (or crash on unhashable values), so the
    merge refuses it loudly instead.
    """

    def __init__(self, op: str, value: object) -> None:
        super().__init__(
            f"cannot merge shard slices for op {op!r}: "
            f"value {value!r} of type {type(value).__name__} has no .oid "
            f"to deduplicate on"
        )
        self.op = op
        self.value = value


class PartialResultError(RuntimeFederationError):
    """A fan-out failed and the runtime policy forbids partial answers."""

    def __init__(self, message: str, failures=()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


class ServiceError(ReproError):
    """The federation query service could not satisfy a request."""


class UnknownTenantError(ServiceError):
    """A request named a tenant the service does not host."""

    def __init__(self, tenant_id: str) -> None:
        super().__init__(f"unknown tenant {tenant_id!r}")
        self.tenant_id = tenant_id


class ServiceClosedError(ServiceError):
    """The service is shutting down and no longer admits requests."""


class PayloadError(ServiceError):
    """An HTTP request body is not the JSON shape an endpoint expects."""
