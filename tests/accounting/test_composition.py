"""Tests for :mod:`repro.accounting.composition`."""

from __future__ import annotations

import random

import pytest

from repro.accounting import (
    PrivacyAccountant,
    parallel_composition,
    sequential_composition,
)
from repro.exceptions import PrivacyBudgetError


class TestCompositionHelpers:
    def test_sequential_adds(self):
        assert sequential_composition([0.1, 0.2, 0.3]) == pytest.approx(0.6)

    def test_parallel_takes_max(self):
        assert parallel_composition([0.1, 0.5, 0.3]) == 0.5

    def test_parallel_empty_is_zero(self):
        assert parallel_composition([]) == 0.0

    def test_invalid_epsilons_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            sequential_composition([0.1, 0.0])
        with pytest.raises(PrivacyBudgetError):
            parallel_composition([-0.1])


class TestPrivacyAccountant:
    def test_sequential_charges_add(self):
        accountant = PrivacyAccountant(total_epsilon=1.0)
        accountant.charge("stage-1", 0.25)
        accountant.charge("stage-2", 0.75)
        assert accountant.spent() == pytest.approx(1.0)
        assert accountant.remaining() == pytest.approx(0.0)

    def test_overdraft_rejected(self):
        accountant = PrivacyAccountant(total_epsilon=0.5)
        accountant.charge("stage-1", 0.4)
        with pytest.raises(PrivacyBudgetError):
            accountant.charge("stage-2", 0.2)

    def test_parallel_charges_take_max(self):
        accountant = PrivacyAccountant(total_epsilon=1.0)
        accountant.charge("group-a", 0.8, partition=["a"])
        accountant.charge("group-b", 0.8, partition=["b"])
        assert accountant.spent() == pytest.approx(0.8)

    def test_overlapping_partitions_add(self):
        accountant = PrivacyAccountant(total_epsilon=1.0)
        accountant.charge("first", 0.4, partition=["a", "b"])
        accountant.charge("second", 0.4, partition=["b", "c"])
        assert accountant.spent() == pytest.approx(0.8)

    def test_mixed_sequential_and_parallel(self):
        accountant = PrivacyAccountant(total_epsilon=1.0)
        accountant.charge("global", 0.2)
        accountant.charge("group-a", 0.5, partition=["a"])
        accountant.charge("group-b", 0.5, partition=["b"])
        assert accountant.spent() == pytest.approx(0.7)

    def test_invalid_total_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            PrivacyAccountant(total_epsilon=0.0)

    def test_invalid_charge_rejected(self):
        accountant = PrivacyAccountant(total_epsilon=1.0)
        with pytest.raises(PrivacyBudgetError):
            accountant.charge("bad", 0.0)

    def test_dawa_style_budget_fits(self):
        # The DAWA split (rho*eps partitioning + (1-rho)*eps measurement) must
        # exactly exhaust the budget.
        accountant = PrivacyAccountant(total_epsilon=0.1)
        accountant.charge("partition", 0.025)
        accountant.charge("measure", 0.075)
        assert accountant.remaining() == pytest.approx(0.0, abs=1e-12)

    def test_slab_strategy_budget_is_parallel(self):
        # The Section 5.2.2 strategy measures disjoint slabs, each at full eps.
        accountant = PrivacyAccountant(total_epsilon=0.1)
        for slab in range(10):
            accountant.charge(f"slab-{slab}", 0.1, partition=[f"slab-{slab}"])
        assert accountant.spent() == pytest.approx(0.1)


class RecordingAudit:
    """A minimal audit sink: keeps every emitted event."""

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))


class TestAuditedCharge:
    def test_charges_never_recompose_the_ledger(self, monkeypatch):
        # A charge folds into running state: 10,000 sequential and 1,000
        # partitioned charges make zero full recompositions, and each audit
        # event still reports exactly the oracle's spend.  A full check is
        # O(n), so it runs after every one of the first 1,100 charges and
        # after every 100th one from there on.
        oracle = PrivacyAccountant._spent_with
        calls = []

        def counting(operations):
            calls.append(len(operations))
            return oracle(operations)

        monkeypatch.setattr(PrivacyAccountant, "_spent_with", staticmethod(counting))
        rng = random.Random(0)
        audit = RecordingAudit()
        accountant = PrivacyAccountant(1e6, audit=audit)
        for index in range(11_000):
            partition = None
            if index % 11 == 10:
                # Keys from a small universe: classes both merge and stay apart.
                partition = rng.sample(range(40), rng.randint(1, 4))
            accountant.charge(f"q{index}", rng.uniform(1e-4, 1e-2), partition)
            event, fields = audit.events[-1]
            assert event == "charge"
            if index < 1_100 or index % 100 == 99:
                assert fields["spent"] == oracle(accountant.operations)
        assert calls == []
        assert fields["spent"] == accountant.spent() == oracle(accountant.operations)

    @pytest.mark.parametrize("seed", range(5))
    def test_audited_spend_is_exactly_the_ledger_spend(self, seed):
        rng = random.Random(seed)
        audit = RecordingAudit()
        accountant = PrivacyAccountant(1e6, audit=audit)
        for index in range(60):
            partition = None
            if rng.random() < 0.5:
                partition = rng.sample(range(12), rng.randint(1, 4))
            accountant.charge(f"q{index}", rng.uniform(0.01, 2.0), partition)
            event, fields = audit.events[-1]
            assert event == "charge"
            assert fields["spent"] == accountant.spent()
            assert fields["remaining"] == accountant.total_epsilon - accountant.spent()
