"""Tests for :mod:`repro.core.workload`."""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    Database,
    Domain,
    cumulative_workload,
    identity_workload,
    marginal_workload,
    total_workload,
    workload_from_rows,
)
from repro.core.workload import LRUMemo, Workload, WorkloadTransformCache
from repro.exceptions import WorkloadError


class TestWorkloadClass:
    def test_shape_and_counts(self, line_domain_16):
        workload = identity_workload(line_domain_16)
        assert workload.shape == (16, 16)
        assert workload.num_queries == 16
        assert workload.num_columns == 16

    def test_rejects_wrong_number_of_columns(self, line_domain_16):
        with pytest.raises(WorkloadError):
            Workload(line_domain_16, np.ones((3, 15)))

    def test_accepts_dense_and_sparse(self, line_domain_16):
        dense = Workload(line_domain_16, np.ones((2, 16)))
        sparse = Workload(line_domain_16, sp.csr_matrix(np.ones((2, 16))))
        assert np.allclose(dense.dense(), sparse.dense())

    def test_float_csr_matrix_is_kept_and_others_are_converted(self, line_domain_16):
        kept = sp.csr_matrix(np.eye(16))
        assert Workload(line_domain_16, kept).matrix is kept
        for other in (
            sp.csr_matrix(np.eye(16, dtype=np.float32)),
            sp.csr_array(np.eye(16)),
            sp.coo_matrix(np.eye(16)),
        ):
            matrix = Workload(line_domain_16, other).matrix
            assert isinstance(matrix, sp.csr_matrix)
            assert matrix.dtype == np.float64
            assert np.array_equal(matrix.toarray(), np.eye(16))

    def test_one_dimensional_matrix_becomes_row(self, line_domain_16):
        workload = Workload(line_domain_16, np.ones(16))
        assert workload.shape == (1, 16)

    def test_answer(self, line_domain_16, dense_database_16):
        workload = identity_workload(line_domain_16)
        assert np.allclose(workload.answer(dense_database_16), dense_database_16.counts)

    def test_answer_rejects_domain_mismatch(self, dense_database_16):
        workload = identity_workload(Domain((8,)))
        with pytest.raises(WorkloadError):
            workload.answer(dense_database_16)

    def test_answer_vector_rejects_wrong_length(self, line_domain_16):
        workload = identity_workload(line_domain_16)
        with pytest.raises(WorkloadError):
            workload.answer_vector(np.ones(4))

    def test_row_access(self, line_domain_16):
        workload = cumulative_workload(line_domain_16)
        row = workload.row(3)
        assert row.sum() == 4
        with pytest.raises(WorkloadError):
            workload.row(16)

    def test_stack(self, line_domain_16):
        stacked = identity_workload(line_domain_16).stack(total_workload(line_domain_16))
        assert stacked.num_queries == 17

    def test_subset(self, line_domain_16):
        workload = cumulative_workload(line_domain_16)
        subset = workload.subset([0, 15])
        assert subset.num_queries == 2
        assert subset.row(1).sum() == 16

    def test_subset_rejects_bad_index(self, line_domain_16):
        with pytest.raises(WorkloadError):
            identity_workload(line_domain_16).subset([20])

    def test_is_counting(self, line_domain_16):
        assert identity_workload(line_domain_16).is_counting()
        weighted = Workload(line_domain_16, 0.5 * np.ones((1, 16)))
        assert not weighted.is_counting()

    def test_right_multiply_shape_check(self, line_domain_16):
        workload = identity_workload(line_domain_16)
        with pytest.raises(WorkloadError):
            workload.right_multiply(np.ones((4, 4)))


class TestNamedWorkloads:
    def test_identity_answers_histogram(self, line_domain_16, sparse_database_16):
        answers = identity_workload(line_domain_16).answer(sparse_database_16)
        assert np.allclose(answers, sparse_database_16.counts)

    def test_cumulative_matches_prefix_sums(self, line_domain_16, dense_database_16):
        answers = cumulative_workload(line_domain_16).answer(dense_database_16)
        assert np.allclose(answers, np.cumsum(dense_database_16.counts))

    def test_cumulative_rejects_2d(self, grid_domain_5):
        with pytest.raises(WorkloadError):
            cumulative_workload(grid_domain_5)

    def test_total_workload(self, line_domain_16, dense_database_16):
        answers = total_workload(line_domain_16).answer(dense_database_16)
        assert answers.shape == (1,)
        assert answers[0] == pytest.approx(dense_database_16.scale)

    def test_marginal_workload_sums_to_total(self, grid_domain_5, grid_database_5):
        for axis in range(2):
            marginal = marginal_workload(grid_domain_5, axis).answer(grid_database_5)
            assert marginal.shape == (5,)
            assert marginal.sum() == pytest.approx(grid_database_5.scale)

    def test_marginal_matches_numpy(self, grid_domain_5, grid_database_5):
        expected = grid_database_5.as_array().sum(axis=1)
        actual = marginal_workload(grid_domain_5, 0).answer(grid_database_5)
        assert np.allclose(actual, expected)

    def test_marginal_rejects_bad_axis(self, grid_domain_5):
        with pytest.raises(WorkloadError):
            marginal_workload(grid_domain_5, 2)

    def test_workload_from_rows(self, line_domain_16):
        rows = [np.ones(16), np.zeros(16)]
        workload = workload_from_rows(line_domain_16, rows, name="custom")
        assert workload.num_queries == 2
        assert workload.name == "custom"


class TestSensitivities:
    def test_identity_sensitivity_is_one(self, line_domain_16):
        assert identity_workload(line_domain_16).l1_sensitivity() == 1.0

    def test_cumulative_sensitivity_is_k(self, line_domain_16):
        # Example 2.2 of the paper: the sensitivity of C_k is k.
        assert cumulative_workload(line_domain_16).l1_sensitivity() == 16.0

    def test_total_sensitivity_is_one(self, line_domain_16):
        assert total_workload(line_domain_16).l1_sensitivity() == 1.0


#: The plain LRU memo's hashable-key cases: the key each one gives a workload.
HASHABLE_KEYS = {
    "str": lambda workload: workload.signature(),
    "bytes": lambda workload: workload.signature().encode(),
    "int": lambda workload: workload.num_queries,
    "tuple": lambda workload: ("rows", workload.num_queries),
}


def assert_evicts_only_the_least_recent(memo_class, key_of) -> None:
    """Cycling bound+1 distinct keys through the memo recomputes only the
    one evicted entry."""
    domain = Domain((8,))
    bound = 4
    cache = memo_class(maxsize=bound)
    keys = [
        key_of(Workload(domain, np.eye(8)[: rows + 1])) for rows in range(bound + 1)
    ]
    computes = []

    def compute(key):
        computes.append(key)
        return len(computes)

    first = [cache.get_or_compute(key, compute) for key in keys]
    assert first == list(range(1, bound + 2)) and len(cache) == bound
    # keys[0] was evicted; the other ``bound`` entries all hit.
    again = [cache.get_or_compute(key, compute) for key in keys[1:]]
    assert again == first[1:]
    assert cache.get_or_compute(keys[0], compute) == bound + 2
    assert computes[-1] is keys[0]


def assert_memoises_none(memo_class, key_of) -> None:
    cache = memo_class(maxsize=2)
    key = key_of(identity_workload(Domain((4,))))
    calls = []
    for _ in range(3):
        assert cache.get_or_compute(key, lambda k: calls.append(k)) is None
    assert len(calls) == 1


class TestWorkloadTransformCache:
    def test_a_full_memo_evicts_only_its_least_recent_entry(self):
        assert_evicts_only_the_least_recent(WorkloadTransformCache, lambda w: w)

    def test_none_is_memoised(self):
        assert_memoises_none(WorkloadTransformCache, lambda w: w)

    @pytest.mark.parametrize("key_of", HASHABLE_KEYS.values(), ids=HASHABLE_KEYS)
    def test_lru_memo_evicts_only_its_least_recent_entry(self, key_of):
        assert_evicts_only_the_least_recent(LRUMemo, key_of)

    @pytest.mark.parametrize("key_of", HASHABLE_KEYS.values(), ids=HASHABLE_KEYS)
    def test_lru_memo_memoises_none(self, key_of):
        assert_memoises_none(LRUMemo, key_of)

    def test_racing_computes_share_the_first_published_value(self):
        """Threads racing on the same keys all get one value per key: the
        one published first, never a later duplicate."""
        memo = LRUMemo(maxsize=4)
        barrier = threading.Barrier(8)
        seen = [[] for _ in range(8)]

        def worker(index):
            barrier.wait(timeout=10)
            for round_ in range(50):
                key = round_ % 4
                seen[index].append(memo.get_or_compute(key, lambda k: [k]))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert len(memo) == 4
        published = [memo.get(key) for key in range(4)]
        for values in seen:
            assert all(value is published[r % 4] for r, value in enumerate(values))

    def test_pickled_state_is_the_maxsize_and_the_entries(self):
        cache = WorkloadTransformCache(maxsize=3)
        workload = identity_workload(Domain((4,)))
        cache.get_or_compute(workload, lambda w: w.num_queries)
        state = cache.__getstate__()
        assert state == {"_maxsize": 3, "_entries": {workload.signature(): 4}}
        assert type(state["_entries"]) is dict
        clone = pickle.loads(pickle.dumps(cache))
        assert type(clone) is WorkloadTransformCache
        assert clone.get_or_compute(workload, lambda w: None) == 4
