"""Privacy-budget accounting: sequential and parallel composition.

The Section 5 strategies rely on two composition facts:

* **Sequential composition** — running mechanisms with budgets ε₁, …, ε_m on
  the same data costs ε₁ + … + ε_m (used by DAWA's two stages and by the
  G^θ_{k^d} strategy that splits the budget across dimensions);
* **Parallel composition** — mechanisms operating on *disjoint* parts of the
  data (disjoint groups of policy edges in the transformed domain) each enjoy
  the full budget (used by every per-line / per-group strategy).

:class:`PrivacyAccountant` is the engine's ε-ledger: every session's scoped
ledger and the engine's global one are accountants, and every flush charges
them under the narrowed accountant lock.  It keeps the composition of its
ledger as running state, so a charge costs O(1) amortised (O(|partition|)
for a partitioned one) however long the ledger has grown.
:meth:`PrivacyAccountant._spent_with` recomposes a whole list from scratch;
it is the oracle the running state is tested against, bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..exceptions import PrivacyBudgetError


@dataclass(frozen=True)
class BudgetedOperation:
    """One charged operation: a label, a budget, and the data partition it touched."""

    label: str
    epsilon: float
    partition: Optional[frozenset] = None


class _OverlapClass:
    """One overlap class of partitioned operations (running state).

    ``keys`` is the union of its operations' partitions, ``cost`` their
    composed ε, and ``order`` the position at which
    :meth:`PrivacyAccountant._spent_with`'s group list last (re)appended the
    class — the order in which a later merge must add the costs.
    """

    __slots__ = ("keys", "cost", "order")

    def __init__(self) -> None:
        self.keys: Set = set()
        self.cost = 0.0
        self.order = 0


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

    **Running state.**  ``operations`` is the ledger, in append order.  Next
    to it the accountant keeps the ledger's composition folded into running
    state: the sequential sum, the partition overlap classes (with their
    costs, their group-list order and a key → class index) and the running
    maximum over class costs.  The invariant, checked after every step by
    the property tests, is ``spent() == _spent_with(operations)`` *exactly*
    (``==``, not approximately).  Costs:

    * :meth:`charge` and :meth:`can_charge` fold the new operation into a
      projection of the state — O(1) for a sequential operation,
      O(|partition|) for a partitioned one — and only a charge that passes
      every check (budget, durable append) commits it;
    * :meth:`spent` and :meth:`remaining` read the state in O(1);
    * :meth:`rollback`, :meth:`ScopedAccountant.close`'s reservation rewrite
      and durable recovery rewrite the ledger and rebuild the state through
      one O(n) replay.  They are rare (a mechanism failed before release, a
      session closed, a process booted); nothing else mutates
      ``operations``.

    The order of float additions is fixed because float addition does not
    associate: the state must add the same numbers in the same order as
    :meth:`_spent_with`, or ``spent`` (and with it every audit event and
    every budget-edge refusal) could move by an ulp.  The sequential sum is
    a running ``+=`` in append order; a merging charge adds the merged
    classes' costs in group-list order; the parallel term is
    ``max(old_max, merged_cost)``, which is exact because costs are
    positive.

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
        self._replay(self.operations)

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
            fold = self._fold(operation)
            projected = fold[0] + fold[1]
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
            self._commit(operation, fold)
            if self.audit is not None:
                # ``projected`` is the committed state's spend: the ledger
                # as it now stands.
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
            operations = self.operations
            for index, candidate in enumerate(operations):
                if candidate is operation:
                    self._replay(operations[:index] + operations[index + 1 :])
                    if self.durable is not None:
                        # Best-effort durable delete: a failure leaves the
                        # store over-counting, which the invariant allows.
                        self.durable.record_rollback(operation)
                    if self.audit is not None:
                        spent = self.spent()
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
            return self._sequential + self._parallel

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
            sequential, parallel, _, _ = self._fold(operation)
        return sequential + parallel <= self.total_epsilon * (1 + 1e-12)

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

    def _fold(self, operation: BudgetedOperation) -> tuple:
        """Project ``operation`` onto the running state without committing it.

        Returns ``(sequential, parallel, merged, cost)``: the two terms of
        :meth:`spent` with the operation folded in and, for a partitioned
        operation, the classes it merges (in group-list order) and the cost
        of the class they merge into.  O(1) for a sequential operation,
        O(|partition|) for a partitioned one.
        """
        if operation.partition is None:
            return self._sequential + operation.epsilon, self._parallel, None, 0.0
        class_of = self._class_of
        touched = {}
        for key in operation.partition:
            overlap = class_of.get(key)
            if overlap is not None:
                touched[id(overlap)] = overlap
        merged = sorted(touched.values(), key=attrgetter("order"))
        cost = operation.epsilon
        for overlap in merged:
            cost += overlap.cost
        return self._sequential, max(self._parallel, cost), merged, cost

    def _commit(self, operation: BudgetedOperation, fold: tuple) -> None:
        """Make a :meth:`_fold` projection of ``operation`` the running state."""
        self._sequential, self._parallel, merged, cost = fold
        if merged is None:
            return
        # Union by size: the largest merged class absorbs the others, so a
        # key is re-pointed O(log n) times over the ledger's whole life.
        target = max(merged, key=lambda overlap: len(overlap.keys), default=None)
        if target is None:
            target = _OverlapClass()
        class_of = self._class_of
        for overlap in merged:
            if overlap is not target:
                target.keys |= overlap.keys
                for key in overlap.keys:
                    class_of[key] = target
        for key in operation.partition:
            class_of[key] = target
        target.keys.update(operation.partition)
        target.cost = cost
        target.order = self._appends
        self._appends += 1

    def _replay(self, operations: List[BudgetedOperation]) -> None:
        """Make ``operations`` the ledger and rebuild the running state.

        O(n): the one path for whole-ledger rewrites — :meth:`rollback`,
        :meth:`ScopedAccountant.close`'s reservation rewrite and durable
        recovery.  The ledger list is updated in place.
        """
        self.operations[:] = operations
        self._sequential = 0.0
        self._parallel = 0.0
        self._class_of: Dict[Hashable, _OverlapClass] = {}
        self._appends = 0
        for operation in self.operations:
            self._commit(operation, self._fold(operation))

    @staticmethod
    def _spent_with(operations: List[BudgetedOperation]) -> float:
        """Composition cost of a list of operations, recomposed from scratch.

        Sequential operations (no partition) always add up.  Partitioned
        operations are grouped greedily: operations whose partitions overlap
        add up, disjoint ones take the maximum.  The computation is
        conservative (never underestimates the true composition cost).

        This is the oracle for the accountant's running state, so the
        sequential sum is an explicit left-to-right loop: from Python 3.12
        ``sum()`` over floats is compensated and would no longer equal a
        running ``+=``.
        """
        sequential = 0.0
        # Group partitioned operations into overlap classes.
        groups: List[Tuple[Set, float]] = []
        for op in operations:
            if op.partition is None:
                sequential += op.epsilon
                continue
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
                ledger = self.parent.operations
                for index, operation in enumerate(ledger):
                    if operation is self.reservation:
                        rewritten = []
                        if actually_spent > 0:
                            rewritten.append(
                                BudgetedOperation(
                                    label=self.label,
                                    epsilon=actually_spent,
                                    partition=None,
                                )
                            )
                        self.parent._replay(
                            ledger[:index] + rewritten + ledger[index + 1 :]
                        )
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
