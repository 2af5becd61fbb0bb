"""Property tests: the accountant's running state against its oracle.

:class:`~repro.accounting.PrivacyAccountant` folds every charge into running
composition state instead of recomposing its ledger.  These tests drive
random sequences of sequential and partitioned charges, overdrafts, invalid
budgets, rollbacks by identity, scope opens and closes and a durable
save + recover, and check after every step that each live ledger's
``spent()`` equals :meth:`PrivacyAccountant._spent_with` over its operations
*exactly*, and that ``can_charge`` predicted every charge's outcome.
"""

from __future__ import annotations

import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import PrivacyAccountant
from repro.engine.durability import LedgerStore, recover_accountant
from repro.exceptions import PrivacyBudgetError

TOTAL = 10.0

#: Budgets whose sums round: a prime denominator gives full mantissas, so a
#: different order of additions would show in the last bits.
MESSY = st.integers(min_value=1, max_value=4000).map(lambda n: n / 997)
#: Budgets: messy ones, a few values that tie exactly, and invalid ones
#: (zero, negative, NaN) that every path must refuse.
EPSILONS = st.one_of(
    MESSY,
    st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    st.sampled_from([0.0, -0.5, math.nan]),
)
#: Partition keys come from a small universe, so partitions both overlap
#: (their classes merge) and stay disjoint (they compose in parallel).
PARTITIONS = st.one_of(
    st.none(),
    st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=4),
)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), st.integers(0, 7), EPSILONS, PARTITIONS),
        st.tuples(st.just("rollback"), st.integers(0, 7), st.integers(0, 63)),
        st.tuples(st.just("open"), EPSILONS),
        st.tuples(st.just("close"), st.integers(0, 7)),
        st.tuples(st.just("recover")),
    ),
    min_size=1,
    max_size=40,
)


def assert_running_state_is_exact(accountant):
    assert accountant.spent() == PrivacyAccountant._spent_with(accountant.operations)
    assert accountant.remaining() == accountant.total_epsilon - accountant.spent()


def remap(charged, old_operations, new_operations):
    """Carry charged operations over to a recovered ledger, by position."""
    positions = [
        index
        for index, operation in enumerate(old_operations)
        if any(operation is candidate for candidate in charged)
    ]
    return [new_operations[index] for index in positions]


class Ledgers:
    """The root accountant, its scopes and every operation charged to each."""

    def __init__(self, path):
        self.store = LedgerStore(path)
        self.store.initialise(TOTAL)
        self.root = PrivacyAccountant(TOTAL)
        self.store.bind(self.root)
        # Slot 0 is the root; later slots are scopes, closed ones included.
        self.accountants = [self.root]
        self.charged = [[]]
        self.opened = 0

    def pick(self, slot):
        return slot % len(self.accountants)

    def charge(self, slot, epsilon, partition):
        slot = self.pick(slot)
        accountant = self.accountants[slot]
        predicted = accountant.can_charge(epsilon, partition)
        try:
            operation = accountant.charge("q", epsilon, partition)
        except PrivacyBudgetError:
            assert not predicted
        else:
            assert predicted
            self.charged[slot].append(operation)

    def rollback(self, slot, index):
        slot = self.pick(slot)
        charged = self.charged[slot]
        if charged:
            operation = charged.pop(index % len(charged))
            assert self.accountants[slot].rollback(operation)
            assert not self.accountants[slot].rollback(operation)

    def open(self, epsilon):
        predicted = self.root.can_charge(epsilon)
        self.opened += 1
        try:
            scope = self.root.open_scope(f"scope-{self.opened}", epsilon)
        except PrivacyBudgetError:
            assert not predicted
        else:
            assert predicted
            self.accountants.append(scope)
            self.charged.append([])

    def close(self, slot):
        slot = self.pick(slot)
        if slot:
            scope = self.accountants[slot]
            expected = 0.0 if scope.closed else max(scope.remaining(), 0.0)
            assert scope.close() == expected
            # Charges to a closed scope are refused; nothing can roll back.
            self.charged[slot] = []

    def recover(self):
        before = self.root.spent()
        store, state = recover_accountant(self.store.path)
        self.store.close()
        self.store = store
        assert state.accountant.spent() == before
        charged = [remap(self.charged[0], self.root.operations, state.accountant.operations)]
        accountants = [state.accountant]
        recovered = {scope.label: scope.accountant for scope in state.scopes}
        for slot, accountant in enumerate(self.accountants[1:], start=1):
            scope = recovered.get(accountant.label)
            if scope is None:  # closed before the save: gone from the store
                continue
            assert scope.spent() == accountant.spent()
            charged.append(remap(self.charged[slot], accountant.operations, scope.operations))
            accountants.append(scope)
        self.root = state.accountant
        self.accountants = accountants
        self.charged = charged

    def check(self):
        for accountant in self.accountants:
            assert_running_state_is_exact(accountant)


class TestIncrementalLedger:
    @given(steps=STEPS)
    @settings(max_examples=60, deadline=None)
    def test_running_state_equals_the_oracle_after_every_step(self, steps):
        with tempfile.TemporaryDirectory() as directory:
            ledgers = Ledgers(os.path.join(directory, "ledger.db"))
            try:
                for kind, *arguments in steps:
                    getattr(ledgers, kind)(*arguments)
                    ledgers.check()
            finally:
                ledgers.store.close()

    @given(
        charges=st.lists(
            st.tuples(
                MESSY,
                st.one_of(
                    st.none(),
                    st.lists(st.integers(0, 15), min_size=1, max_size=4),
                ),
            ),
            min_size=30,
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_long_ledgers_fold_and_replay_exactly(self, charges):
        # An unbounded budget lets long ledgers merge many overlap classes,
        # where the order of the float additions shows.  A ledger handed to
        # the constructor is replayed, and must equal the folded state.
        folded = PrivacyAccountant(1e9)
        for epsilon, partition in charges:
            folded.charge("q", epsilon, partition)
            assert_running_state_is_exact(folded)
        rebuilt = PrivacyAccountant(1e9, operations=list(folded.operations))
        assert rebuilt.spent() == folded.spent()
        assert_running_state_is_exact(rebuilt)
