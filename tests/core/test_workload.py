"""Tests for :mod:`repro.core.workload`."""

from __future__ import annotations

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
from repro.core.workload import Workload, WorkloadTransformCache
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


class TestWorkloadTransformCache:
    def test_a_full_memo_evicts_only_its_least_recent_entry(self):
        """Cycling bound+1 distinct workloads through the memo recomputes
        only the one evicted entry."""
        domain = Domain((8,))
        bound = 4
        cache = WorkloadTransformCache(maxsize=bound)
        computes = []

        def compute(workload):
            computes.append(workload.signature())
            return workload.num_queries

        workloads = [
            Workload(domain, np.eye(8)[: rows + 1]) for rows in range(bound + 1)
        ]
        for workload in workloads:
            cache.get_or_compute(workload, compute)
        assert len(cache) == bound and len(computes) == bound + 1
        # workloads[0] was evicted; the other ``bound`` entries all hit.
        for workload in workloads[1:] + workloads[:1]:
            assert cache.get_or_compute(workload, compute) == workload.num_queries
        assert computes[bound + 1 :] == [workloads[0].signature()]

    def test_none_is_memoised(self):
        cache = WorkloadTransformCache(maxsize=2)
        workload = identity_workload(Domain((4,)))
        calls = []
        for _ in range(3):
            assert cache.get_or_compute(workload, lambda w: calls.append(w)) is None
        assert len(calls) == 1
