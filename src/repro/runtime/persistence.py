"""Persistent extent store: cache granules that survive a restart.

The :class:`~repro.runtime.cache.ExtentCache` amortises the autonomy
cost of the paper's FSM design — every global query pulls single
concept extensions from component agents (§3, Appendix B) — but only
within one process: a restarted federation re-scanned every component
database from cold.  :class:`PersistentExtentStore` is the disk tier
under the cache: granules spill into a sqlite file on ``put`` and are
reloaded on construction, so a federation restarted with the same cache
path warms up without a single agent scan.

Entries are keyed by the **full granule coordinate** — agent, schema,
class, the shard coordinate ``(index, of)`` when sharded, and the
scan op (``direct_extent`` or ``extent``) — and stamped with both the
cache generation and the component database ``version`` observed through
:meth:`AgentTransport.generation <repro.runtime.transport.AgentTransport.generation>`
at fill time.  Restored entries therefore obey exactly the live cache's
invalidation rules: a component write after the restart mismatches the
stored source version and forces a rescan, and a persisted
``bump_generation`` strands every older entry.

Entries whose component version was *unobservable* at fill time
(``source_generation is None``) are never spilled: across a restart
there is no way to tell whether the component database changed while
the federation was down, so those granules stay memory-only.

Crash safety:

* every write happens inside a sqlite transaction (the rollback journal
  makes partially-applied writes impossible);
* the file carries a format-version header (the ``meta`` table); a
  mismatch — an old layout, a future one — discards the file instead of
  misreading it;
* a corrupt or non-sqlite file at the cache path is moved aside to
  ``<path>.corrupt`` and the store starts cold (:attr:`recovered` is
  set so callers can report the recovery);
* a row whose pickled value no longer loads is deleted during
  :meth:`load` and simply misses, never poisons, the warm cache.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

#: bump when the table layout or the value encoding changes; files
#: written under any other version are discarded, never misread (4: an
#: OID pickles as its five parts, no longer as a dataclass's state)
FORMAT_VERSION = 4

#: one granule coordinate: ``(agent, schema, class)`` or
#: ``(agent, schema, class, (index, of))``
GranuleKey = Tuple[Any, ...]

#: a restored entry: key, op, value, cache generation, source generation
StoredEntry = Tuple[GranuleKey, str, Any, int, Optional[int]]

_SHARD_SEPARATOR = "/"

_TABLES = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS granules (
        agent             TEXT NOT NULL,
        schema_name       TEXT NOT NULL,
        class_name        TEXT NOT NULL,
        shard             TEXT NOT NULL,
        op                TEXT NOT NULL,
        value             BLOB NOT NULL,
        cache_generation  INTEGER NOT NULL,
        source_generation INTEGER NOT NULL,
        PRIMARY KEY (agent, schema_name, class_name, shard, op)
    )
    """,
)


def _encode_shard(key: GranuleKey) -> str:
    """The shard column: ``''`` unsharded, ``index/of`` sharded."""
    if len(key) <= 3:
        return ""
    index, of = key[3]
    return f"{index}{_SHARD_SEPARATOR}{of}"


def _decode_key(agent: str, schema_name: str, class_name: str, shard: str) -> GranuleKey:
    if not shard:
        return (agent, schema_name, class_name)
    index, of = shard.split(_SHARD_SEPARATOR)
    return (agent, schema_name, class_name, (int(index), int(of)))


class PersistentExtentStore:
    """A sqlite-backed spill target for :class:`ExtentCache` granules.

    Thread-safe: one connection guarded by a lock (the cache already
    serializes its calls, but the store is usable standalone).  All
    writes commit transactionally; see the module docstring for the
    crash-safety contract.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        #: True when a corrupt or mismatched file was moved aside and
        #: the store started cold instead of warm
        self.recovered = False
        self._lock = threading.Lock()
        self._conn = self._open()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(str(self.path), check_same_thread=False)
        connection.execute("PRAGMA synchronous=NORMAL")
        return connection

    def _initialise(self, connection: sqlite3.Connection) -> None:
        with connection:
            for statement in _TABLES:
                connection.execute(statement)
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('format', ?)",
                (FORMAT_VERSION,),
            )
            connection.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('generation', 0)"
            )

    def _validate(self, connection: sqlite3.Connection) -> None:
        """Raise :class:`sqlite3.DatabaseError` unless the file is ours."""
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'format'"
        ).fetchone()
        if row is None or row[0] != FORMAT_VERSION:
            raise sqlite3.DatabaseError(
                f"extent store format {row[0] if row else 'missing'!r} "
                f"!= {FORMAT_VERSION}"
            )

    def _open(self) -> sqlite3.Connection:
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        connection: Optional[sqlite3.Connection] = None
        try:
            connection = self._connect()
            if fresh:
                self._initialise(connection)
            else:
                self._validate(connection)
            return connection
        except sqlite3.DatabaseError:
            # corrupt file, foreign sqlite layout, or a format-version
            # mismatch: move the evidence aside and start cold
            if connection is not None:
                connection.close()
            os.replace(self.path, self.path.with_name(self.path.name + ".corrupt"))
            self.recovered = True
            connection = self._connect()
            self._initialise(connection)
            return connection

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # generation header
    # ------------------------------------------------------------------
    def generation(self) -> int:
        """The persisted cache generation (0 on a fresh store)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'generation'"
            ).fetchone()
            return int(row[0]) if row is not None else 0

    def set_generation(self, generation: int) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('generation', ?)",
                (generation,),
            )

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    def load(self) -> Iterator[StoredEntry]:
        """Yield every live entry; purge stale and unreadable rows.

        Rows from an older cache generation are already invalid under
        the cache's rules, so they are deleted instead of restored; a
        row whose pickled value fails to load is likewise deleted (one
        bad granule costs one cold scan, not the whole warm start).
        """
        with self._lock, self._conn:
            generation = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'generation'"
            ).fetchone()
            current = int(generation[0]) if generation is not None else 0
            self._conn.execute(
                "DELETE FROM granules WHERE cache_generation != ?", (current,)
            )
            rows = self._conn.execute(
                "SELECT agent, schema_name, class_name, shard, op,"
                "       value, cache_generation, source_generation FROM granules"
            ).fetchall()
            doomed: List[Tuple[str, str, str, str, str]] = []
            entries: List[StoredEntry] = []
            for row in rows:
                (agent, schema_name, class_name, shard, op,
                 blob, cache_generation, source_generation) = row
                try:
                    value = pickle.loads(blob)
                except Exception:  # noqa: BLE001 - any undecodable row is dropped
                    doomed.append((agent, schema_name, class_name, shard, op))
                    continue
                entries.append(
                    (
                        _decode_key(agent, schema_name, class_name, shard),
                        op,
                        value,
                        int(cache_generation),
                        int(source_generation),
                    )
                )
            for coordinates in doomed:
                self._conn.execute(
                    "DELETE FROM granules WHERE agent = ? AND schema_name = ? "
                    "AND class_name = ? AND shard = ? AND op = ?",
                    coordinates,
                )
        return iter(entries)

    def put(
        self,
        key: GranuleKey,
        op: str,
        value: Any,
        cache_generation: int,
        source_generation: int,
    ) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO granules (agent, schema_name, class_name,"
                " shard, op, value, cache_generation, source_generation)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key[0],
                    key[1],
                    key[2],
                    _encode_shard(key),
                    op,
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
                    cache_generation,
                    source_generation,
                ),
            )

    def delete(self, key: GranuleKey, op: str) -> None:
        """Drop one op's entry of one granule."""
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM granules WHERE agent = ? AND schema_name = ? "
                "AND class_name = ? AND shard = ? AND op = ?",
                (key[0], key[1], key[2], _encode_shard(key), op),
            )

    def delete_granule(self, key: GranuleKey) -> None:
        """Drop every op's entry of one granule coordinate."""
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM granules WHERE agent = ? AND schema_name = ? "
                "AND class_name = ? AND shard = ?",
                (key[0], key[1], key[2], _encode_shard(key)),
            )

    def clear(self) -> None:
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM granules")

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM granules").fetchone()
            return int(row[0])
