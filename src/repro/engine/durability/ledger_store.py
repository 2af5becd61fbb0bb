"""Crash-safe write-ahead ε-ledger: SQLite persistence for the accountant.

The engine's privacy state — every charge, rollback, scope open and close —
is otherwise in-memory only, so a crashed server forgets the budget it
spent: a *privacy* violation, not an ops gap.  :class:`LedgerStore` makes
the charge stage's check-then-append a check-then-**durable**-append: the
SQLite row commits inside the accountant's existing ledger lock, *before*
the mechanism runs, so a crash at any later moment can only ever leave the
durable ledger counting **at least** what was actually released (an
un-executed charge may be over-counted; spent budget is never
under-counted — the only sound direction for a privacy ledger).

Storage follows the proven HTAP recipe (one store, the transactional path
must not stall the analytic path): ``journal_mode=WAL`` so the per-charge
commits append to the write-ahead log instead of rewriting pages,
``synchronous=NORMAL`` so a commit is one ``write()`` (durable against
process death — the crash model here — without paying an ``fsync`` per
charge), and ``busy_timeout`` so concurrent openers wait instead of
failing.  Mutations run in autocommit mode: every append/delete is its own
durable transaction, which is exactly the write-ahead contract.

Fail-closed semantics: if a durable append raises (disk full, injected via
:mod:`~repro.engine.durability.faults`), the accountant undoes the
in-memory append and refuses the charge — admitting a charge that a crash
would forget is the one thing this tier exists to prevent.

Recovery (:meth:`LedgerStore.recover`, surfaced as
``PrivacyAccountant.recover(path)``) rebuilds the global ledger, every
still-open scope (session allotments, with their per-client spend), and
re-binds the store so the relaunched process keeps journalling — a
restarted server refuses queries against budget it already spent.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...accounting.composition import (
    BudgetedOperation,
    PrivacyAccountant,
    ScopedAccountant,
)
from ...exceptions import DurabilityError
from .faults import fault_point

__all__ = [
    "LEDGER_FORMAT",
    "LedgerStore",
    "RecoveredScope",
    "RecoveredState",
    "recover_accountant",
]

logger = logging.getLogger(__name__)

#: On-disk schema version; bump on any layout change a reader cannot absorb.
LEDGER_FORMAT = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS scopes (
    scope_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    label          TEXT NOT NULL,
    epsilon        REAL NOT NULL,
    reservation_op INTEGER,
    closed         INTEGER NOT NULL DEFAULT 0,
    spent          REAL
);
CREATE TABLE IF NOT EXISTS ops (
    op_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    scope_id  INTEGER,
    label     TEXT NOT NULL,
    epsilon   REAL NOT NULL,
    partition TEXT
);
CREATE INDEX IF NOT EXISTS ops_by_scope ON ops(scope_id);
"""


def _encode_partition(partition: Optional[frozenset]) -> Optional[str]:
    """JSON-encode a partition's keys, or ``None`` for sequential ops.

    Keys the engine uses are domain cell ints; anything JSON cannot encode
    degrades to ``None`` — i.e. *sequential* composition on recovery, which
    over-counts (allowed direction) instead of mis-grouping.
    """
    if partition is None:
        return None
    try:
        return json.dumps(sorted(partition, key=repr), sort_keys=False)
    except (TypeError, ValueError):
        logger.warning(
            "ledger partition with non-JSON keys stored conservatively as "
            "sequential; recovery will over-count, never under-count"
        )
        return None


def _decode_partition(encoded: Optional[str]) -> Optional[frozenset]:
    if encoded is None:
        return None
    # Lists decoded from JSON are unhashable; partitions of the engine are
    # flat collections of cell indices, so plain element hashing suffices.
    return frozenset(json.loads(encoded))


@dataclass
class RecoveredScope:
    """One still-open scope rebuilt from the store (a session allotment)."""

    scope_id: int
    label: str
    accountant: ScopedAccountant


@dataclass
class RecoveredState:
    """Everything :meth:`LedgerStore.recover` rebuilds on boot."""

    total_epsilon: float
    accountant: PrivacyAccountant
    scopes: List[RecoveredScope] = field(default_factory=list)


class _DurableBinding:
    """Per-ledger journalling hooks the accountant calls under its lock.

    One binding per accountant: the global one carries ``scope_id=None``,
    each open scope gets its own.  The binding maps live
    :class:`BudgetedOperation` objects (identity — the accountant's own
    rollback contract) to their durable rowids; the operations are held
    strongly, which adds nothing, since the accountant's ledger already
    keeps every operation for composition arithmetic.
    """

    def __init__(self, store: "LedgerStore", scope_id: Optional[int]) -> None:
        self._store = store
        self._scope_id = scope_id
        self._rowids: Dict[int, Tuple[BudgetedOperation, int]] = {}

    def _remember(self, operation: BudgetedOperation, rowid: int) -> None:
        self._rowids[id(operation)] = (operation, rowid)

    def _rowid_of(self, operation: BudgetedOperation) -> Optional[int]:
        entry = self._rowids.get(id(operation))
        if entry is None or entry[0] is not operation:
            return None
        return entry[1]

    # ------------------------------------------------- accountant-facing hooks
    def record_charge(self, operation: BudgetedOperation) -> None:
        """Durably append one charge; raises to veto the in-memory append."""
        rowid = self._store._append_op(
            self._scope_id,
            operation.label,
            operation.epsilon,
            _encode_partition(operation.partition),
        )
        self._remember(operation, rowid)

    def record_rollback(self, operation: BudgetedOperation) -> None:
        """Durably delete a rolled-back charge (best-effort: a failed delete
        leaves an over-count, which the invariant allows)."""
        entry = self._rowids.pop(id(operation), None)
        if entry is None or entry[0] is not operation:
            logger.warning(
                "durable rollback of %r found no journalled row; the store "
                "will over-count until re-initialised", operation.label
            )
            return
        try:
            self._store._delete_op(entry[1])
        except Exception:
            logger.warning(
                "durable rollback delete failed for %r; the store "
                "over-counts this charge (allowed direction)",
                operation.label,
                exc_info=True,
            )

    def record_scope_open(
        self, label: str, epsilon: float, reservation: BudgetedOperation
    ) -> "_DurableBinding":
        """Journal a scope (session allotment); returns the child binding."""
        reservation_rowid = self._rowid_of(reservation)
        scope_id = self._store._insert_scope(label, epsilon, reservation_rowid)
        return _DurableBinding(self._store, scope_id)

    def record_scope_close(
        self,
        parent: Optional["_DurableBinding"],
        reservation: BudgetedOperation,
        label: str,
        spent: float,
        refund: float,
    ) -> None:
        """Journal a scope close: mark it closed and rewrite the parent's
        reservation row to the actual spend (mirror of the in-memory
        rewrite).  Best-effort — a failure leaves the scope open in the
        store with its full reservation, an over-count."""
        try:
            self._store._close_scope(self._scope_id, spent)
            if parent is None or refund <= 0:
                return
            rowid = parent._rowid_of(reservation)
            if rowid is None:
                return
            parent._rowids.pop(id(reservation), None)
            if spent > 0:
                self._store._rewrite_op(rowid, label, spent)
            else:
                self._store._delete_op(rowid)
        except Exception:
            logger.warning(
                "durable scope close failed for %r; the store keeps the "
                "full reservation (over-count, allowed direction)",
                label,
                exc_info=True,
            )


class LedgerStore:
    """SQLite-backed write-ahead store for one engine's ε-ledgers.

    The store is written exclusively under the accountant's ledger lock
    (the bindings are only ever invoked there), so one connection with
    ``check_same_thread=False`` is sound; the store's own lock additionally
    serialises recovery-time readers against any stray writer.
    """

    def __init__(
        self,
        path: str,
        busy_timeout_ms: int = 30000,
        synchronous: str = "NORMAL",
    ) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        cursor = self._connection.cursor()
        # The Snippet-1 pragma recipe: WAL keeps per-charge commits to one
        # log append, NORMAL makes a commit one write() (durable against
        # process death without an fsync per charge), busy_timeout makes
        # concurrent openers wait instead of erroring.
        cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute(f"PRAGMA synchronous={synchronous}")
        cursor.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        cursor.execute("PRAGMA foreign_keys=ON")
        cursor.executescript(_SCHEMA)
        found = self._meta("format")
        if found is not None and int(found) != LEDGER_FORMAT:
            raise DurabilityError(
                f"Ledger store {self.path!r} has format version {found}; this "
                f"library reads version {LEDGER_FORMAT} — recover it with the "
                "matching library version instead of mixing formats"
            )

    # ------------------------------------------------------------------- meta
    def _meta(self, key: str) -> Optional[str]:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row is not None else None

    def total_epsilon(self) -> Optional[float]:
        """The journalled global budget, or ``None`` for a fresh store."""
        with self._lock:
            value = self._meta("total_epsilon")
        return float(value) if value is not None else None

    def initialise(self, total_epsilon: float) -> None:
        """Stamp a fresh store with its format and global budget."""
        with self._lock:
            existing = self._meta("total_epsilon")
            if existing is not None:
                if float(existing) != float(total_epsilon):
                    raise DurabilityError(
                        f"Ledger store {self.path!r} was initialised with "
                        f"total_epsilon={existing}, not {total_epsilon}; "
                        "recover it instead of re-initialising"
                    )
                return
            self._connection.execute(
                "INSERT INTO meta(key, value) VALUES ('format', ?)",
                (str(LEDGER_FORMAT),),
            )
            self._connection.execute(
                "INSERT INTO meta(key, value) VALUES ('total_epsilon', ?)",
                (repr(float(total_epsilon)),),
            )

    # -------------------------------------------------------------- mutations
    def _append_op(
        self,
        scope_id: Optional[int],
        label: str,
        epsilon: float,
        partition: Optional[str],
    ) -> int:
        fault_point("ledger-append")
        with self._lock:
            cursor = self._connection.execute(
                "INSERT INTO ops(scope_id, label, epsilon, partition) "
                "VALUES (?, ?, ?, ?)",
                (scope_id, label, float(epsilon), partition),
            )
            return int(cursor.lastrowid)

    def _delete_op(self, rowid: int) -> None:
        with self._lock:
            self._connection.execute("DELETE FROM ops WHERE op_id = ?", (rowid,))

    def _rewrite_op(self, rowid: int, label: str, epsilon: float) -> None:
        with self._lock:
            self._connection.execute(
                "UPDATE ops SET label = ?, epsilon = ?, partition = NULL "
                "WHERE op_id = ?",
                (label, float(epsilon), rowid),
            )

    def _insert_scope(
        self, label: str, epsilon: float, reservation_op: Optional[int]
    ) -> int:
        with self._lock:
            cursor = self._connection.execute(
                "INSERT INTO scopes(label, epsilon, reservation_op) "
                "VALUES (?, ?, ?)",
                (label, float(epsilon), reservation_op),
            )
            return int(cursor.lastrowid)

    def _close_scope(self, scope_id: Optional[int], spent: float) -> None:
        with self._lock:
            self._connection.execute(
                "UPDATE scopes SET closed = 1, spent = ? WHERE scope_id = ?",
                (float(spent), scope_id),
            )

    # ---------------------------------------------------------------- binding
    def bind(self, accountant: PrivacyAccountant) -> None:
        """Attach write-ahead journalling to a (fresh) accountant."""
        accountant.durable = _DurableBinding(self, None)

    # --------------------------------------------------------------- recovery
    def recover(self, audit: Optional[object] = None) -> RecoveredState:
        """Rebuild ledgers, scopes and per-client spend from the store.

        Returns a fully re-bound :class:`RecoveredState`: the global
        accountant carries every global operation (open-scope reservations
        included), each still-open scope is a :class:`ScopedAccountant`
        sharing the parent's lock with its own charges replayed, and every
        accountant keeps journalling through this store — the relaunched
        process continues the same write-ahead ledger.
        """
        stored_total = self.total_epsilon()
        if stored_total is None:
            raise DurabilityError(
                f"Ledger store {self.path!r} was never initialised; nothing "
                "to recover"
            )
        with self._lock:
            op_rows = self._connection.execute(
                "SELECT op_id, scope_id, label, epsilon, partition "
                "FROM ops ORDER BY op_id"
            ).fetchall()
            scope_rows = self._connection.execute(
                "SELECT scope_id, label, epsilon, reservation_op, closed "
                "FROM scopes ORDER BY scope_id"
            ).fetchall()

        accountant = PrivacyAccountant(stored_total, audit=audit)
        binding = _DurableBinding(self, None)
        accountant.durable = binding

        open_scopes = {
            row[0]: row for row in scope_rows if not row[4]
        }
        closed_scope_ids = {row[0] for row in scope_rows if row[4]}

        # Global ops replay in append order; ops of *closed* scopes are
        # skipped — their spend was folded into the parent's rewritten
        # reservation at close time, exactly like the in-memory path.
        global_ops: List[BudgetedOperation] = []
        by_rowid: Dict[int, BudgetedOperation] = {}
        per_scope_ops: Dict[int, List[Tuple[int, BudgetedOperation]]] = {}
        for op_id, scope_id, label, epsilon, partition in op_rows:
            if scope_id in closed_scope_ids:
                continue
            operation = BudgetedOperation(
                label=label,
                epsilon=float(epsilon),
                partition=_decode_partition(partition),
            )
            if scope_id is None:
                global_ops.append(operation)
                binding._remember(operation, op_id)
                by_rowid[op_id] = operation
            else:
                per_scope_ops.setdefault(scope_id, []).append((op_id, operation))

        scopes: List[RecoveredScope] = []
        for scope_id, row in open_scopes.items():
            _, label, epsilon, reservation_op, _ = row
            reservation = by_rowid.get(reservation_op)
            if reservation is None:
                # The scope row outlived its reservation op (partial failure
                # mid-close).  Recover it conservatively: synthesise the
                # reservation so the parent keeps the full allotment charged.
                reservation = BudgetedOperation(label=label, epsilon=float(epsilon))
                rowid = self._append_op(None, label, float(epsilon), None)
                global_ops.append(reservation)
                binding._remember(reservation, rowid)
            child_binding = _DurableBinding(self, scope_id)
            scoped = ScopedAccountant(
                total_epsilon=float(epsilon),
                lock=accountant.lock,
                audit=audit,
                parent=accountant,
                label=label,
                reservation=reservation,
            )
            scoped.durable = child_binding
            scope_ops = per_scope_ops.get(scope_id, [])
            for op_id, operation in scope_ops:
                child_binding._remember(operation, op_id)
            scoped._replay([operation for _, operation in scope_ops])
            scopes.append(RecoveredScope(scope_id, label, scoped))
        # One replay per ledger rebuilds each accountant's running
        # composition state from the recovered operations.
        accountant._replay(global_ops)

        return RecoveredState(
            total_epsilon=stored_total, accountant=accountant, scopes=scopes
        )

    # --------------------------------------------------------------- teardown
    def close(self) -> None:
        """Close the SQLite connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.close()
                finally:
                    self._connection = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LedgerStore({self.path!r})"


def recover_accountant(
    path: str, audit: Optional[object] = None
) -> Tuple[LedgerStore, RecoveredState]:
    """Open ``path`` and recover its state; the one-call boot helper.

    Backs ``PrivacyAccountant.recover`` (which returns just the accountant)
    and the engine's ``durable_ledger=`` boot path (which also wants the
    scopes, to rebuild client sessions).
    """
    store = LedgerStore(path)
    return store, store.recover(audit=audit)
