"""The correctness check: answers against a runtime-free reference FSM.

Every answer the benchmark receives is reduced to a digest of its sorted
canonical rows and compared, after the timed window, with the answer of
a reference federation that has no runtime at all (no planner, cache,
deltas, shards or service): an FSM over ``build_memory_databases`` of
the same generated dataset.  Writes made during the window are replayed
onto the reference in order on the benchmark's single thread, and each
read is compared against the reference state it must have observed, so
the check never races a write.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple


def _plain(value: Any) -> Any:
    """JSON-comparable form; OIDs as their dotted string (as the service
    sends them), collections sorted."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset, list, tuple)):
        return sorted((_plain(item) for item in value), key=repr)
    return str(value)


def digest(rows: Iterable[Mapping[str, Any]]) -> Tuple[str, int]:
    """(sha256 of the sorted canonical rows, row count)."""
    lines = sorted(
        json.dumps({str(k): _plain(v) for k, v in row.items()}, sort_keys=True)
        for row in rows
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(), len(lines)


@dataclasses.dataclass(frozen=True)
class Write:
    """One source write, replayable on a sqlite or a memory adapter."""

    kind: str  # "insert" | "update"
    schema: str
    relation: str
    #: the row number an update changes (unused by inserts)
    number: int
    row: Dict[str, Any]

    def apply_sqlite(self, databases: Mapping[str, Any]) -> None:
        adapter = databases[self.schema].adapter
        if self.kind == "insert":
            adapter.insert_row(self.relation, self.row)
        else:
            adapter.update_row(self.relation, self.number, self.row)

    def apply_memory(self, databases: Mapping[str, Any]) -> None:
        adapter = databases[self.schema].adapter
        if self.kind == "insert":
            adapter.insert(self.relation, self.row)
        else:
            adapter.update_row(self.relation, self.number, self.row)


def _mismatch(tenant: str, text: str, epoch: int, got: int, want: int) -> str:
    return (
        f"wrong answer: tenant {tenant}, query {text!r} after {epoch} writes: "
        f"{got} rows differ from the reference's {want}"
    )


def check_sources(
    dataset: Any,
    answers: Sequence[Tuple[int, str, str, int]],
    writes: Sequence[Write],
    corrupt: bool = False,
    tenant: str = "sources",
) -> List[str]:
    """Check ``(epoch, query, digest, count)`` answers over *dataset*.

    *epoch* is how many of *writes* were applied before the read.
    *corrupt* perturbs the reference (every person's level moves by one)
    so the self-test can show that the check fails on a wrong reference.
    """
    from repro.federation.query import FederatedQuery
    from repro.workloads.source_scenarios import build_memory_databases, source_fsm

    databases = build_memory_databases(dataset)
    if corrupt:
        _shift_levels(dataset, databases)
    fsm = source_fsm(databases, dataset.assertions)
    fsm.integrate_all()
    by_epoch: Dict[int, List[Tuple[str, str, int]]] = {}
    for epoch, text, answer, count in answers:
        by_epoch.setdefault(epoch, []).append((text, answer, count))
    problems: List[str] = []
    applied = 0
    for epoch in sorted(by_epoch):
        while applied < epoch:
            writes[applied].apply_memory(databases)
            applied += 1
        engine = fsm.engine()
        expected: Dict[str, Tuple[str, int]] = {}
        for text, answer, count in by_epoch[epoch]:
            if text not in expected:
                expected[text] = digest(FederatedQuery.parse(text).run(engine))
            want, want_count = expected[text]
            if answer != want:
                problems.append(_mismatch(tenant, text, epoch, count, want_count))
    return problems


def check_session(
    session: Any, answers: Sequence[Tuple[int, str, str, int]], tenant: str
) -> List[str]:
    """Check answers of a demo tenant against its runtime-free session."""
    from repro.federation.query import FederatedQuery

    engine = session.fsm.engine()
    expected: Dict[str, Tuple[str, int]] = {}
    problems: List[str] = []
    for epoch, text, answer, count in answers:
        if text not in expected:
            expected[text] = digest(FederatedQuery.parse(text).run(engine))
        if answer != expected[text][0]:
            problems.append(_mismatch(tenant, text, epoch, count, expected[text][1]))
    return problems


def _shift_levels(dataset: Any, databases: Mapping[str, Any]) -> None:
    from .workloads import LEVEL_COLUMN, encode_level

    for schema in dataset.schemas:
        adapter = databases[schema].adapter
        column = LEVEL_COLUMN[schema]
        for number, row in enumerate(dataset.rows[schema]["person"], start=1):
            level = _decode_level(schema, row[column]) % 5 + 1
            adapter.update_row("person", number, {column: encode_level(schema, level)})


def _decode_level(schema: str, stored: Any) -> int:
    if schema == "hospital":
        return int(str(stored)[1:])
    if schema == "market":
        return int(stored) // 100
    return int(stored)
