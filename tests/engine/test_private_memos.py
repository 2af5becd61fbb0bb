"""The kernel's reused pieces never leave the process that built them.

``TreeTransform`` remembers ``x_G`` — a function of the private histogram —
and ``PolicyTransform`` remembers its reduction matrix and offset layout.
Transforms are pickled into plan blobs for worker processes and into plan
stores on disk, so every such memo must be dropped from the pickled state:
``x_G`` would otherwise leak private data, and any memo would make two
pickles of one plan differ.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.blowfish import TreeTransformMechanism
from repro.core import Database, Domain, cumulative_workload, identity_workload
from repro.core.workload import Workload
from repro.engine import PrivateQueryEngine
from repro.policy import PolicyGraph, PolicyTransform, TreeTransform, line_policy

TREE_MEMOS = ("_database_memo",)
TRANSFORM_MEMOS = ("_reduction", "_offset_layout")


@pytest.fixture
def domain() -> Domain:
    return Domain((64,))


@pytest.fixture
def database(domain: Domain) -> Database:
    rng = np.random.default_rng(17)
    return Database(domain, rng.poisson(4.0, domain.size).astype(np.float64))


@pytest.fixture
def split_policy(domain: Domain) -> PolicyGraph:
    half = domain.size // 2
    return PolicyGraph(
        domain,
        edges=[(i, i + 1) for i in range(half - 1)]
        + [(i, i + 1) for i in range(half, domain.size - 1)],
        name="two-segments",
    )


def _warm(transform: PolicyTransform, tree: TreeTransform, database: Database) -> bytes:
    """Fill every memo; return the bytes of ``x_G``."""
    workload = cumulative_workload(database.domain)
    transform.reduction_matrix()
    transform.offset(workload, database)
    transform.transform_workload(workload)
    return tree.transform_database(database).tobytes()


class TestPickledState:
    def test_policy_transform_state_has_no_memo(self, split_policy, database):
        transform = PolicyTransform(split_policy)
        _warm(transform, TreeTransform(transform), database)
        assert transform._reduction is not None
        assert transform._offset_layout is not None
        state = transform.__getstate__()
        for field in TRANSFORM_MEMOS:
            assert field not in state

    def test_tree_transform_state_has_no_memo(self, split_policy, database):
        transform = PolicyTransform(split_policy)
        tree = TreeTransform(transform)
        x_g = _warm(transform, tree, database)
        assert tree._database_memo
        state = tree.__getstate__()
        for field in TREE_MEMOS:
            assert field not in state
        assert x_g not in pickle.dumps(tree)

    def test_round_trip_rebuilds_lazily_and_answers_identically(self, split_policy, database):
        mechanism = TreeTransformMechanism(split_policy, 0.5)
        workload = cumulative_workload(database.domain)
        before = mechanism.answer(workload, database, 5)
        clone = pickle.loads(pickle.dumps(mechanism))
        assert len(clone.tree._database_memo) == 0
        assert clone.tree.transform._reduction is None
        assert clone.tree.transform._offset_layout is None
        assert clone.answer(workload, database, 5).tobytes() == before.tobytes()
        assert mechanism.answer(workload, database, 5).tobytes() == before.tobytes()

    def test_pickle_does_not_change_with_the_data(self, split_policy, database):
        mechanism = TreeTransformMechanism(split_policy, 0.5)
        workload = cumulative_workload(database.domain)
        mechanism.answer(workload, database, 1)
        first = pickle.dumps(mechanism)
        other = Database(database.domain, database.counts[::-1].copy())
        mechanism.answer(workload, other, 2)
        assert len(mechanism.tree._database_memo) == 2
        assert pickle.dumps(mechanism) == first


def _make_engine(database, policy, **overrides) -> PrivateQueryEngine:
    options = dict(
        total_epsilon=100.0,
        default_policy=policy,
        prefer_data_dependent=False,
        enable_answer_cache=False,
        random_state=0,
    )
    options.update(overrides)
    return PrivateQueryEngine(database, **options)


def _tree_mechanisms(engine: PrivateQueryEngine):
    for _, entry in engine.plan_cache.export_entries():
        mechanism = entry.plan.algorithm.mechanism
        if isinstance(mechanism, TreeTransformMechanism):
            yield mechanism


class TestPlanStore:
    @pytest.mark.parametrize("sharded", [False, True])
    def test_save_plans_file_holds_no_transformed_database(
        self, database, domain, split_policy, tmp_path, sharded
    ):
        policy = split_policy if sharded else line_policy(domain)
        engine = _make_engine(database, policy)
        try:
            engine.open_session("alice", 10.0)
            engine.ask("alice", identity_workload(domain), epsilon=0.5)
            engine.ask("alice", cumulative_workload(domain), epsilon=0.25)
            warm = [m for m in _tree_mechanisms(engine) if m.tree._database_memo]
            assert warm, "no plan ran warm, so the check below would be vacuous"
            path = tmp_path / "store.pkl"
            assert engine.save_plans(str(path)) >= 1
        finally:
            engine.close()
        payload = path.read_bytes()
        for mechanism in warm:
            for x_g in mechanism.tree._database_memo._entries.values():
                assert x_g.tobytes() not in payload
            for field in TREE_MEMOS:
                assert field.encode() not in payload
            for field in TRANSFORM_MEMOS:
                assert field.encode() not in payload

    @pytest.mark.parametrize("sharded", [False, True])
    def test_load_plans_round_trip_answers_byte_identically(
        self, database, domain, split_policy, tmp_path, sharded
    ):
        policy = split_policy if sharded else line_policy(domain)
        half = domain.size // 2
        workloads = [
            identity_workload(domain),
            cumulative_workload(domain),
            Workload(domain, np.hstack([np.eye(half), np.zeros((half, half))])),
        ]
        path = tmp_path / "store.pkl"
        cold = _make_engine(database, policy, random_state=23)
        try:
            cold.open_session("alice", 10.0)
            cold_answers = [cold.ask("alice", w, epsilon=0.5) for w in workloads]
            cold.save_plans(str(path))
        finally:
            cold.close()

        warm = _make_engine(database, policy, random_state=23)
        try:
            assert warm.load_plans(str(path)) >= 1
            warm.open_session("alice", 10.0)
            warm_answers = [warm.ask("alice", w, epsilon=0.5) for w in workloads]
            assert warm.stats.plan_misses == 0
        finally:
            warm.close()
        for got, want in zip(warm_answers, cold_answers):
            assert got.tobytes() == want.tobytes()
