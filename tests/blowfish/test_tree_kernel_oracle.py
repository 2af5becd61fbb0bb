"""Byte-identity of the tree kernel against the original per-call composition.

:class:`~repro.blowfish.TreeTransformMechanism` answers ``W_G x̃_G + c(W, n)``
(Theorem 4.3, Lemma 4.10).  ``x_G``, the offset ``c`` and the reduction ``D``
do not depend on the draw, so the library builds them once and reuses them.
The ``_oracle_*`` functions below are verbatim copies of the original
per-call builds (``TreeTransform.transform_database``,
``PolicyTransform.offset`` and ``PolicyTransform.reduction_matrix``); seeded
answers through the reused pieces must equal the composition of the
originals byte for byte, including after the data changes.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
import scipy.sparse as sp

from repro.blowfish import (
    TreeTransformMechanism,
    dawa_estimator_factory,
    laplace_estimator_factory,
)
from repro.core import Database, Domain
from repro.core.workload import Workload, stack_workloads
from repro.exceptions import TransformError
from repro.policy import (
    PolicyGraph,
    approximate_with_line_spanner,
    line_policy,
    threshold_policy,
)
from repro.policy.graph import is_bottom


# --------------------------------------------------------------------- oracles
def _oracle_transform_database(self, database: Database) -> np.ndarray:
    if database.domain != self.policy.domain:
        raise TransformError("Database domain does not match the policy domain")
    kept = self._transform.kept_vertices
    counts_kept = database.counts[kept]
    structure = self._structure
    subtree = counts_kept.copy()
    # Reverse topological accumulation (children before parents).
    for row in structure.topological_order[::-1]:
        for child in structure.children_of_vertex[row]:
            subtree[row] += subtree[child]
    edge_values = np.zeros(self.num_edges, dtype=np.float64)
    child_rows = structure.child_vertex_of_edge
    edge_values[:] = structure.edge_sign * subtree[child_rows]
    return edge_values


def _oracle_offset(self, workload: Workload, database: Database) -> np.ndarray:
    self._check_domain(workload)
    self._check_database(database)
    result = np.zeros(workload.num_queries, dtype=np.float64)
    if not self._removed:
        return result
    matrix = sp.csc_matrix(workload.matrix)
    counts = database.counts
    for index, component in enumerate(self._components):
        removed = self._removed_by_component[index]
        if removed is None:
            continue
        members = np.array(
            sorted(int(v) for v in component if not is_bottom(v)), dtype=np.int64
        )
        component_total = float(counts[members].sum())
        column = np.asarray(matrix.getcol(int(removed)).todense()).ravel()
        result += component_total * column
    return result


def _oracle_reduction_matrix(self) -> sp.csr_matrix:
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for new_index, vertex in enumerate(self._kept):
        rows.append(int(vertex))
        cols.append(new_index)
        data.append(1.0)
        removed = self._component_removed_of_vertex.get(int(vertex))
        if removed is not None:
            rows.append(int(removed))
            cols.append(new_index)
            data.append(-1.0)
    return sp.csr_matrix(
        (data, (rows, cols)), shape=(self._policy.domain.size, len(self._kept))
    )


def _reference_answer_batch(mechanism, workloads, database, seed) -> List[np.ndarray]:
    """One ``answer_batch`` invocation built from the oracle pieces."""
    stacked, slices = stack_workloads(workloads)
    transform = mechanism.tree.transform
    transformed_database = _oracle_transform_database(mechanism.tree, database)
    estimator = mechanism._estimator_factory(
        mechanism.effective_epsilon, transformed_database.shape[0]
    )
    estimate = estimator.estimate_vector(transformed_database, seed)
    estimate = mechanism._apply_consistency(estimate, total=database.scale)
    reduced = sp.csr_matrix(stacked.matrix @ _oracle_reduction_matrix(transform))
    transformed_workload = sp.csr_matrix(reduced @ transform.incidence)
    answers = np.asarray(transformed_workload @ estimate).ravel()
    answers = answers + _oracle_offset(transform, stacked, database)
    return [answers[rows] for rows in slices]


# -------------------------------------------------------------------- fixtures
def _segments_policy(domain: Domain, components: int) -> PolicyGraph:
    length = domain.size // components
    edges = [
        (cell, cell + 1)
        for start in range(0, domain.size, length)
        for cell in range(start, start + length - 1)
    ]
    return PolicyGraph(domain, edges, name="segments")


def _counts(seed: int, cells: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    counts = rng.poisson(1.5, cells).astype(np.float64)
    for centre in rng.integers(0, cells, 4):
        counts[max(0, centre - 6) : centre + 7] += rng.integers(10, 90)
    return counts


def _range_workloads(domain: Domain, seed: int, count: int = 4) -> List[Workload]:
    rng = np.random.default_rng(seed)
    workloads = []
    for _ in range(count):
        matrix = np.zeros((6, domain.size))
        for row in range(6):
            lo, hi = np.sort(rng.integers(0, domain.size, 2))
            matrix[row, lo : hi + 1] = 1.0
        workloads.append(Workload(domain, matrix))
    return workloads


def _mechanism(kind: str, estimator=laplace_estimator_factory) -> TreeTransformMechanism:
    if kind == "line":
        return TreeTransformMechanism(
            line_policy(Domain((256,))), 0.5, estimator_factory=estimator
        )
    if kind == "threshold":
        policy = threshold_policy(Domain((256,)), 8)
        return TreeTransformMechanism(
            policy,
            0.5,
            estimator_factory=estimator,
            spanner=approximate_with_line_spanner(policy, 8),
        )
    assert kind == "segments"
    return TreeTransformMechanism(
        _segments_policy(Domain((512,)), 4), 0.5, estimator_factory=estimator
    )


KINDS = ["line", "threshold", "segments"]


def _assert_answers_equal(actual, expected) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------- tests
class TestKernelOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_answers_match_reference(self, kind):
        mechanism = _mechanism(kind)
        domain = mechanism.policy.domain
        database = Database(domain, _counts(3, domain.size))
        workloads = _range_workloads(domain, 4)
        # Repeated calls run warm; every one must still match the reference.
        for seed in (11, 12, 13):
            _assert_answers_equal(
                mechanism.answer_batch(workloads, database, seed),
                _reference_answer_batch(mechanism, workloads, database, seed),
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_dawa_estimator_matches_reference(self, kind):
        mechanism = _mechanism(kind, estimator=dawa_estimator_factory)
        domain = mechanism.policy.domain
        database = Database(domain, _counts(5, domain.size))
        workloads = _range_workloads(domain, 6, count=2)
        for seed in (21, 22):
            _assert_answers_equal(
                mechanism.answer_batch(workloads, database, seed),
                _reference_answer_batch(mechanism, workloads, database, seed),
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_pieces_match_oracles(self, kind):
        mechanism = _mechanism(kind)
        tree = mechanism.tree
        transform = tree.transform
        domain = mechanism.policy.domain
        database = Database(domain, _counts(7, domain.size))
        (workload,) = _range_workloads(domain, 8, count=1)
        for _ in range(2):
            assert (
                tree.transform_database(database).tobytes()
                == _oracle_transform_database(tree, database).tobytes()
            )
            assert (
                transform.offset(workload, database).tobytes()
                == _oracle_offset(transform, workload, database).tobytes()
            )
            reduction = transform.reduction_matrix()
            expected = _oracle_reduction_matrix(transform)
            assert reduction.shape == expected.shape
            for part in ("indptr", "indices", "data"):
                assert getattr(reduction, part).tobytes() == getattr(expected, part).tobytes()

    def test_offset_sums_duplicate_entries_like_the_original(self):
        mechanism = _mechanism("segments")
        transform = mechanism.tree.transform
        domain = mechanism.policy.domain
        database = Database(domain, _counts(9, domain.size))
        removed = transform.removed_vertices
        # A non-canonical CSR: duplicate entries on removed columns.
        rows = [0, 0, 0, 1, 1, 2]
        cols = [removed[0], 5, removed[0], removed[1], removed[3], removed[1]]
        data = [0.1, 1.0, 0.2, 0.3, 1e-17, 0.7]
        matrix = sp.csr_matrix(
            (np.array(data), np.array(cols), np.array([0, 3, 5, 6])), shape=(3, domain.size)
        )
        workload = Workload(domain, matrix)
        assert (
            transform.offset(workload, database).tobytes()
            == _oracle_offset(transform, workload, database).tobytes()
        )


class TestKernelStaleness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_second_database_gets_fresh_pieces(self, kind):
        mechanism = _mechanism(kind)
        tree = mechanism.tree
        domain = mechanism.policy.domain
        first = Database(domain, _counts(1, domain.size))
        second = Database(domain, _counts(2, domain.size))
        workloads = _range_workloads(domain, 3)
        mechanism.answer_batch(workloads, first, 1)
        assert (
            tree.transform_database(second).tobytes()
            != tree.transform_database(first).tobytes()
        )
        _assert_answers_equal(
            mechanism.answer_batch(workloads, second, 2),
            _reference_answer_batch(mechanism, workloads, second, 2),
        )
        _assert_answers_equal(
            mechanism.answer_batch(workloads, first, 3),
            _reference_answer_batch(mechanism, workloads, first, 3),
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_in_place_mutation_gets_fresh_pieces(self, kind):
        mechanism = _mechanism(kind)
        tree = mechanism.tree
        transform = tree.transform
        domain = mechanism.policy.domain
        database = Database(domain, _counts(4, domain.size))
        workloads = _range_workloads(domain, 5)
        stacked, _ = stack_workloads(workloads)
        mechanism.answer_batch(workloads, database, 1)
        before_x = tree.transform_database(database).copy()
        before_offset = transform.offset(stacked, database)

        # Move records between components (and within one), as a data
        # refresh would; the component totals change, so must the offset.
        database.counts[0] += 5.0
        database.counts[domain.size - 2] += 3.0
        database.counts[domain.size // 2] = 0.0

        after_x = tree.transform_database(database)
        assert after_x.tobytes() != before_x.tobytes()
        assert after_x.tobytes() == _oracle_transform_database(tree, database).tobytes()
        after_offset = transform.offset(stacked, database)
        assert after_offset.tobytes() == _oracle_offset(transform, stacked, database).tobytes()
        if transform.removed_vertices:
            assert after_offset.tobytes() != before_offset.tobytes()
        _assert_answers_equal(
            mechanism.answer_batch(workloads, database, 2),
            _reference_answer_batch(mechanism, workloads, database, 2),
        )

    def test_transformed_database_is_read_only(self):
        mechanism = _mechanism("line")
        domain = mechanism.policy.domain
        database = Database(domain, _counts(6, domain.size))
        x_g = mechanism.tree.transform_database(database)
        assert not x_g.flags.writeable
        with pytest.raises(ValueError):
            x_g[0] = 1.0
        # A second call hands back the same values, unharmed.
        assert (
            mechanism.tree.transform_database(database).tobytes()
            == _oracle_transform_database(mechanism.tree, database).tobytes()
        )
