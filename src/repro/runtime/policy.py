"""Runtime policy: the knobs governing fan-out, failure and caching.

One immutable :class:`RuntimePolicy` travels from the
:class:`~repro.runtime.runtime.FederationRuntime` facade down into the
executor and cache, so a federation can be tuned in one place — worker
count, per-call timeout, retry/backoff schedule, circuit-breaker
thresholds, and what to do when an agent stays down
(:attr:`FailurePolicy.PARTIAL` degrades to partial answers with a
warning; :attr:`FailurePolicy.ERROR` refuses the query).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from ..errors import RuntimeFederationError


class FailurePolicy(enum.Enum):
    """What a fan-out does when an agent fails past all retries."""

    PARTIAL = "partial"  # degrade: answer from surviving agents + warning
    ERROR = "error"  # refuse: raise PartialResultError

    @classmethod
    def coerce(cls, value: "FailurePolicy | str") -> "FailurePolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise RuntimeFederationError(
                f"unknown failure policy {value!r}; choose from "
                f"{sorted(p.value for p in cls)}"
            ) from None


@dataclasses.dataclass(frozen=True)
class RuntimePolicy:
    """Tuning parameters for the federation runtime."""

    #: threads fanning agent scans out over a transport that waits, or
    #: under a ``timeout``; 1 degenerates to the sequential path, and
    #: in-process scans with no deadline run on the calling thread
    max_workers: int = 8
    #: concurrent in-flight scans the asyncio executor admits (semaphore
    #: width); unlike threads, raising this costs no OS resources
    max_inflight: int = 64
    #: per-call budget in seconds; ``None`` waits forever
    timeout: Optional[float] = None
    #: retries *after* the first attempt of each scan
    max_retries: int = 2
    #: exponential backoff: base * multiplier**retry, capped at backoff_max
    backoff_base: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_max: float = 0.25
    #: behaviour when an agent fails past all retries
    failure_policy: "FailurePolicy | str" = FailurePolicy.PARTIAL
    #: consecutive failures that trip an agent's circuit breaker
    breaker_threshold: int = 5
    #: seconds an open circuit stays closed to traffic before a probe
    breaker_reset: float = 30.0
    #: serve repeated scans from the extent cache
    cache_enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise RuntimeFederationError("max_workers must be >= 1")
        if self.max_inflight < 1:
            raise RuntimeFederationError("max_inflight must be >= 1")
        if self.max_retries < 0:
            raise RuntimeFederationError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise RuntimeFederationError("timeout must be positive (or None)")
        if self.breaker_threshold < 1:
            raise RuntimeFederationError("breaker_threshold must be >= 1")
        object.__setattr__(
            self, "failure_policy", FailurePolicy.coerce(self.failure_policy)
        )

    def backoff(self, retry: int) -> float:
        """Sleep before the (1-based) *retry*-th retry."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** max(0, retry - 1),
        )

    @classmethod
    def sequential(cls, **overrides) -> "RuntimePolicy":
        """One worker, no retries — the pre-runtime behaviour, measurable."""
        overrides.setdefault("max_workers", 1)
        overrides.setdefault("max_retries", 0)
        return cls(**overrides)
