"""Privacy-budget accounting: sequential and parallel composition.

The Section 5 strategies rely on two composition facts:

* **Sequential composition** — running mechanisms with budgets ε₁, …, ε_m on
  the same data costs ε₁ + … + ε_m (used by DAWA's two stages and by the
  G^θ_{k^d} strategy that splits the budget across dimensions);
* **Parallel composition** — mechanisms operating on *disjoint* parts of the
  data (disjoint groups of policy edges in the transformed domain) each enjoy
  the full budget (used by every per-line / per-group strategy).

:class:`PrivacyAccountant` is a small bookkeeping helper that the experiment
harness and the planner use to make the budget arithmetic explicit and
testable.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..exceptions import PrivacyBudgetError


@dataclass(frozen=True)
class BudgetedOperation:
    """One charged operation: a label, a budget, and the data partition it touched."""

    label: str
    epsilon: float
    partition: Optional[frozenset] = None


@dataclass
class PrivacyAccountant:
    """Track budget consumption under sequential and parallel composition.

    Parameters
    ----------
    total_epsilon:
        The overall budget that must not be exceeded.

    Notes
    -----
    Operations charged with a ``partition`` (any hashable collection of keys,
    e.g. edge-group identifiers) compose in parallel with other operations
    whose partitions are disjoint; operations without a partition compose
    sequentially with everything.

    The ledger is protected by its own re-entrant ``lock``: :meth:`charge` is
    check-then-append, so unsynchronised concurrent charges could overspend.
    This lock is the engine's **narrowed accountant lock** — it is held only
    for the microseconds of a ledger mutation, never across planning or
    mechanism execution.  Scopes created by :meth:`open_scope` share their
    parent's lock so that a scope :meth:`~ScopedAccountant.close` (which
    rewrites the parent's reservation) is atomic with concurrent charges.

    ``audit``, when set, receives one event per ledger mutation (charge,
    rollback, scope open/close) — any object with an
    ``emit(event, **fields)`` method works; the engine installs an
    :class:`repro.engine.observability.AuditLog`.  The type is deliberately
    untyped here: accounting sits below the engine layer and must not import
    from it.  Events are emitted while the ledger lock is held so the audit
    stream's order always matches the ledger's.

    ``durable``, when set, is a write-ahead journalling binding (the engine
    installs one from :class:`repro.engine.durability.LedgerStore`) —
    likewise untyped for the same layering reason.  Its hooks run inside
    the ledger lock, *before* the audit emit, and make every mutation
    check-then-**durable**-append: a charge whose durable append fails is
    undone and refused (fail closed — a crash must never under-count spent
    budget), while rollback/close journalling failures are tolerated (they
    leave over-counts, the allowed direction).
    """

    total_epsilon: float
    operations: List[BudgetedOperation] = field(default_factory=list)
    lock: "threading.RLock" = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    audit: Optional[object] = field(default=None, repr=False, compare=False)
    durable: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.total_epsilon) or self.total_epsilon <= 0:
            raise PrivacyBudgetError(
                f"total_epsilon must be positive and finite, got {self.total_epsilon}"
            )

    def charge(
        self,
        label: str,
        epsilon: float,
        partition: Optional[Sequence] = None,
    ) -> BudgetedOperation:
        """Charge ``epsilon`` for an operation, optionally over a data partition.

        Returns the recorded :class:`BudgetedOperation`, which callers that
        may need to undo the charge (the engine's batch executor) should hand
        back to :meth:`rollback`.
        """
        with self.lock:
            if getattr(self, "closed", False):
                raise PrivacyBudgetError(
                    f"Cannot charge {epsilon} for {label!r}: this accountant is closed"
                )
            # A NaN epsilon would defeat every later comparison (NaN > total is
            # False), permanently corrupting the ledger — reject it up front.
            if not math.isfinite(epsilon) or epsilon <= 0:
                raise PrivacyBudgetError(
                    f"Charged epsilon must be positive and finite, got {epsilon}"
                )
            frozen = None if partition is None else frozenset(partition)
            operation = BudgetedOperation(
                label=label, epsilon=float(epsilon), partition=frozen
            )
            projected = self._spent_with(self.operations + [operation])
            if projected > self.total_epsilon * (1 + 1e-12):
                raise PrivacyBudgetError(
                    f"Charging {epsilon} for {label!r} would exceed the total budget "
                    f"{self.total_epsilon} (already spent {self.spent():.6g})"
                )
            self.operations.append(operation)
            if self.durable is not None:
                # Write-ahead: the charge must be on disk before the
                # mechanism runs.  A failed durable append (disk full)
                # refuses the charge — letting it stand in memory only
                # would under-count after a crash.
                try:
                    self.durable.record_charge(operation)
                except Exception as exc:
                    self.operations.pop()
                    raise PrivacyBudgetError(
                        f"Charge {label!r} refused: durable ledger append "
                        f"failed ({exc}); admitting it would risk "
                        "under-counting spent budget after a crash"
                    ) from exc
            if self.audit is not None:
                # ``projected`` composed exactly the ledger as it now stands
                # (same operations, same order), so it is the spend to report.
                self.audit.emit(
                    "charge",
                    label=label,
                    epsilon=operation.epsilon,
                    spent=projected,
                    remaining=self.total_epsilon - projected,
                )
            return operation

    def rollback(self, operation: BudgetedOperation) -> bool:
        """Remove a previously charged operation from the ledger.

        Used by the engine when a mechanism fails *after* charging but
        *before* releasing anything: the charge must not stand.  Matching is
        by identity so that an equal-valued charge from another thread is
        never refunded by mistake.  Returns ``True`` when the operation was
        found and removed.
        """
        with self.lock:
            for index, candidate in enumerate(self.operations):
                if candidate is operation:
                    del self.operations[index]
                    if self.durable is not None:
                        # Best-effort durable delete: a failure leaves the
                        # store over-counting, which the invariant allows.
                        self.durable.record_rollback(operation)
                    if self.audit is not None:
                        spent = self._spent_with(self.operations)
                        self.audit.emit(
                            "rollback",
                            label=operation.label,
                            epsilon=operation.epsilon,
                            spent=spent,
                            remaining=self.total_epsilon - spent,
                        )
                    return True
            return False

    def spent(self) -> float:
        """Total budget consumed so far under the composition rules."""
        with self.lock:
            return self._spent_with(self.operations)

    def remaining(self) -> float:
        """Budget still available."""
        return self.total_epsilon - self.spent()

    def can_charge(self, epsilon: float, partition: Optional[Sequence] = None) -> bool:
        """Return ``True`` when a :meth:`charge` with these arguments would succeed."""
        if getattr(self, "closed", False) or not math.isfinite(epsilon) or epsilon <= 0:
            return False
        frozen = None if partition is None else frozenset(partition)
        operation = BudgetedOperation(label="?", epsilon=float(epsilon), partition=frozen)
        with self.lock:
            projected = self._spent_with(self.operations + [operation])
        return projected <= self.total_epsilon * (1 + 1e-12)

    def open_scope(self, label: str, epsilon: float) -> "ScopedAccountant":
        """Reserve ``epsilon`` for a sub-accountant (e.g. one client session).

        The reservation is charged against this accountant immediately, under
        sequential composition — scopes may interleave arbitrarily on the same
        data, so nothing weaker is sound.  The returned
        :class:`ScopedAccountant` then tracks consumption *within* the
        reservation; closing it refunds whatever the scope never spent.  The
        scope shares this accountant's ledger lock.
        """
        with self.lock:
            reservation = self.charge(label, epsilon)
            child_durable = None
            if self.durable is not None:
                # Journal the scope (session allotment) itself; failure
                # refunds the reservation and refuses the open, mirroring
                # the fail-closed charge path.
                try:
                    child_durable = self.durable.record_scope_open(
                        label, float(epsilon), reservation
                    )
                except Exception as exc:
                    self.rollback(reservation)
                    raise PrivacyBudgetError(
                        f"Scope {label!r} refused: durable scope journal "
                        f"failed ({exc})"
                    ) from exc
            if self.audit is not None:
                self.audit.emit("scope_open", scope=label, epsilon=float(epsilon))
            return ScopedAccountant(
                total_epsilon=float(epsilon),
                lock=self.lock,
                audit=self.audit,
                durable=child_durable,
                parent=self,
                label=label,
                reservation=reservation,
            )

    @classmethod
    def recover(cls, path: str, audit: Optional[object] = None) -> "PrivacyAccountant":
        """Rebuild an accountant from a durable ledger store on boot.

        The returned accountant carries every journalled operation —
        including the reservations of scopes that were still open at the
        crash — and keeps journalling to the same store, so a relaunched
        server refuses queries against budget it already spent.  Callers
        that also need the recovered scopes themselves (the engine, to
        rebuild client sessions) should use
        :func:`repro.engine.durability.recover_accountant` directly.

        The import is deferred: accounting sits below the engine layer, and
        only this boot-time convenience reaches up into it.
        """
        from ..engine.durability.ledger_store import recover_accountant

        _, state = recover_accountant(path, audit=audit)
        return state.accountant

    @staticmethod
    def _spent_with(operations: List[BudgetedOperation]) -> float:
        """Composition cost of a list of operations.

        Sequential operations (no partition) always add up.  Partitioned
        operations are grouped greedily: operations whose partitions overlap
        add up, disjoint ones take the maximum.  The computation is
        conservative (never underestimates the true composition cost).
        """
        sequential = sum(op.epsilon for op in operations if op.partition is None)
        partitioned = [op for op in operations if op.partition is not None]
        # Group partitioned operations into overlap classes.
        groups: List[Tuple[Set, float]] = []
        for op in partitioned:
            merged_keys: Set = set(op.partition)
            merged_cost = op.epsilon
            remaining_groups: List[Tuple[Set, float]] = []
            for keys, cost in groups:
                if keys & merged_keys:
                    merged_keys |= keys
                    merged_cost += cost
                else:
                    remaining_groups.append((keys, cost))
            remaining_groups.append((merged_keys, merged_cost))
            groups = remaining_groups
        parallel = max((cost for _, cost in groups), default=0.0)
        return sequential + parallel


@dataclass
class ScopedAccountant(PrivacyAccountant):
    """A session-scoped accountant living inside a parent reservation.

    Created by :meth:`PrivacyAccountant.open_scope`.  Charges debit only the
    scope (the parent was already debited the full reservation up front), so a
    runaway session can never spend more than its allotment no matter what the
    rest of the system does.  :meth:`close` shrinks the parent's reservation to
    what was actually spent and refuses further charges.
    """

    parent: Optional[PrivacyAccountant] = None
    label: str = ""
    closed: bool = False
    reservation: Optional[BudgetedOperation] = None

    def close(self) -> float:
        """Close the scope and refund unspent budget to the parent.

        Returns the refunded amount.  The parent's reservation operation is
        replaced by one recording the scope's actual spend (or dropped
        entirely when nothing was spent).
        """
        with self.lock:
            if self.closed:
                return 0.0
            self.closed = True
            refund = self.remaining()
            actually_spent = self.spent()
            if self.parent is not None and refund > 0:
                for index, operation in enumerate(self.parent.operations):
                    if operation is self.reservation:
                        if actually_spent > 0:
                            self.parent.operations[index] = BudgetedOperation(
                                label=self.label, epsilon=actually_spent, partition=None
                            )
                        else:
                            del self.parent.operations[index]
                        break
            refunded = max(refund, 0.0)
            if self.durable is not None:
                self.durable.record_scope_close(
                    self.parent.durable if self.parent is not None else None,
                    self.reservation,
                    self.label,
                    actually_spent,
                    refund,
                )
            if self.audit is not None:
                self.audit.emit(
                    "scope_close",
                    scope=self.label,
                    spent=actually_spent,
                    refunded=refunded,
                )
            return refunded


def sequential_composition(epsilons: Sequence[float]) -> float:
    """Budget of running mechanisms with the given budgets on the same data."""
    if any(eps <= 0 for eps in epsilons):
        raise PrivacyBudgetError("All epsilons must be positive")
    return float(sum(epsilons))


def parallel_composition(epsilons: Sequence[float]) -> float:
    """Budget of running mechanisms on disjoint parts of the data."""
    if any(eps <= 0 for eps in epsilons):
        raise PrivacyBudgetError("All epsilons must be positive")
    return float(max(epsilons, default=0.0))
