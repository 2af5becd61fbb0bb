"""Workload pickles: interval rows as endpoints, everything else as CSR.

A worker-bound unit carries its stacked batch through ``pickle``, and plan
and answer stores persist workloads the same way.  Interval rows (all-1.0,
contiguous canonical CSR rows) pickle as ``lo``/``hi`` endpoints and must
rebuild element for element, with the same dtypes, shape, canonical flag
and signature; any other matrix must round-trip exactly through CSR.
Pickles, plan stores and answer stores written by the older plain-dataclass
format (committed fixtures, see ``fixtures/make_pickle_fixtures.py``) must
still load and serve unchanged.
"""

from __future__ import annotations

import importlib.util
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    Database,
    Domain,
    identity_workload,
    marginal_workload,
    total_workload,
)
from repro.core.workload import Workload, _interval_endpoints
from repro.engine import ShardSet
from repro.policy import PolicyGraph

FIXTURES = Path(__file__).with_name("fixtures")


def load_fixture_module():
    spec = importlib.util.spec_from_file_location(
        "make_pickle_fixtures", FIXTURES / "make_pickle_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ranges_workload(domain: Domain, seed: int, rows: int = 8) -> Workload:
    """Uniformly random inclusive ranges, built densely like a client would."""
    rng = np.random.default_rng(seed)
    ends = np.sort(rng.integers(0, domain.size, size=(rows, 2)), axis=1)
    matrix = np.zeros((rows, domain.size))
    for row, (lo, hi) in enumerate(ends):
        matrix[row, lo : hi + 1] = 1.0
    return Workload(domain, matrix, name=f"ranges-{seed}")


def shard_pieces():
    """Shard-restricted pieces of a range workload over 4 × 64-cell lines."""
    domain = Domain((256,))
    edges = [(c, c + 1) for start in range(0, 256, 64) for c in range(start, start + 63)]
    policy = PolicyGraph(domain, edges, name="segments")
    shard_set = ShardSet.build(policy, Database(domain, np.ones(256)))
    matrix = np.zeros((8, 256))
    for row, start in enumerate(range(0, 256, 32)):
        matrix[row, start + 3 : start + 20] = 1.0
    scatter = shard_set.scatter(Workload(domain, matrix))
    return [piece.workload for piece in scatter.pieces]


def with_empty_rows() -> Workload:
    dense = np.zeros((5, 32))
    dense[1, 4:9] = 1.0
    dense[3, 31] = 1.0
    return Workload(Domain((32,)), dense, name="empties")


def interval_cases():
    domain = Domain((1024,))
    cases = {
        "ranges": ranges_workload(domain, 1),
        "wide-ranges": ranges_workload(Domain((4096,)), 2, rows=32),
        "single-cells": identity_workload(Domain((64,))),
        "full-domain": total_workload(domain),
        "empty-rows": with_empty_rows(),
        "all-empty": Workload(Domain((8,)), sp.csr_matrix((3, 8))),
    }
    for index, piece in enumerate(shard_pieces()):
        cases[f"shard-piece-{index}"] = piece
    return cases


def non_canonical() -> Workload:
    """Duplicates, an explicit zero and unsorted indices, kept as stored."""
    data = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
    indices = np.array([3, 3, 5, 2, 1], dtype=np.int32)
    indptr = np.array([0, 3, 5], dtype=np.int32)
    return Workload(Domain((8,)), sp.csr_matrix((data, indices, indptr), shape=(2, 8)))


def fallback_cases():
    weighted = np.zeros((2, 16))
    weighted[0, 2:6] = 2.0
    weighted[1, 7:9] = 0.5
    gapped = np.zeros((2, 16))
    gapped[0, [1, 3]] = 1.0
    gapped[1, 4:10] = 1.0
    return {
        "weighted": Workload(Domain((16,)), weighted),
        "gapped": Workload(Domain((16,)), gapped),
        "marginal-2d": marginal_workload(Domain((4, 4)), 1),
        "non-canonical": non_canonical(),
    }


def assert_identical(loaded: Workload, original: Workload) -> None:
    for name in ("indptr", "indices", "data"):
        got, want = getattr(loaded.matrix, name), getattr(original.matrix, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert loaded.matrix.shape == original.matrix.shape
    assert loaded.matrix.has_canonical_format == original.matrix.has_canonical_format
    assert loaded.matrix.has_sorted_indices == original.matrix.has_sorted_indices
    assert loaded.domain == original.domain
    assert loaded.name == original.name


@pytest.mark.parametrize("case", sorted(interval_cases()))
def test_interval_rows_rebuild_bit_identically(case):
    workload = interval_cases()[case]
    assert _interval_endpoints(workload.matrix) is not None
    loaded = pickle.loads(pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL))
    assert_identical(loaded, workload)
    assert loaded.signature() == workload.signature()


@pytest.mark.parametrize("case", sorted(fallback_cases()))
def test_other_matrices_round_trip_through_csr(case):
    workload = fallback_cases()[case]
    assert _interval_endpoints(workload.matrix) is None
    loaded = pickle.loads(pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL))
    assert_identical(loaded, workload)
    assert loaded.signature() == workload.signature()


def test_range_rows_ship_as_endpoints():
    workload = ranges_workload(Domain((1024,)), 3, rows=64)
    endpoint_bytes = len(pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL))
    csr_bytes = len(pickle.dumps(workload.matrix, protocol=pickle.HIGHEST_PROTOCOL))
    # Two int32 endpoints per row against ~12 bytes per covered cell.
    assert endpoint_bytes * 20 < csr_bytes


def test_endpoint_scan_runs_once_per_workload(monkeypatch):
    """A batch re-shipped on every dispatch scans its rows only once."""
    import repro.core.workload as workload_module

    scans = []
    real_scan = workload_module._interval_endpoints

    def counting_scan(matrix):
        scans.append(matrix)
        return real_scan(matrix)

    monkeypatch.setattr(workload_module, "_interval_endpoints", counting_scan)
    workload = ranges_workload(Domain((256,)), 5)
    first = pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL)
    second = pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL)
    assert first == second
    assert len(scans) == 1
    assert_identical(pickle.loads(second), workload)


def test_memoised_signature_travels_without_rehashing():
    workload = ranges_workload(Domain((512,)), 4)
    signature = workload.signature()
    loaded = pickle.loads(pickle.dumps(workload))
    assert loaded.__dict__["_signature"] == signature
    unhashed = pickle.loads(pickle.dumps(ranges_workload(Domain((512,)), 4)))
    assert "_signature" not in unhashed.__dict__
    assert unhashed.signature() == signature


def test_old_dataclass_pickles_still_load():
    fixtures = load_fixture_module()
    with open(FIXTURES / "workloads_dataclass.pkl", "rb") as handle:
        loaded = pickle.load(handle)
    expected = fixtures.fixture_workloads()
    assert sorted(loaded) == sorted(expected)
    for name, workload in expected.items():
        assert_identical(loaded[name], workload)
        assert loaded[name].signature() == workload.signature()
    # The older format carried a memoised signature in the instance dict.
    assert "_signature" in loaded["ranges"].__dict__
    # A loaded old pickle re-pickles in the current format and survives it.
    again = pickle.loads(pickle.dumps(loaded["ranges"]))
    assert_identical(again, expected["ranges"])


def test_old_snapshot_loads_and_replays_unchanged(tmp_path):
    """An answer store (and its plan store) written in the older format
    restores, and both asks replay their stored answers."""
    fixtures = load_fixture_module()
    expected = json.loads((FIXTURES / "expected_answers.json").read_text())
    snaps = tmp_path / "snapshot"
    shutil.copytree(FIXTURES / "snapshot", snaps)
    with fixtures.fixture_engine(snapshot_dir=str(snaps)) as engine:
        answers = fixtures.serve(engine)
        stats = engine.stats
    assert stats.answer_hits == 2 and stats.plan_misses == 0
    assert answers == expected["snapshot"]


def test_old_plan_store_loads_and_hits_unchanged():
    """A format-2 plan store written in the older format serves every
    plan from the store with the same seeded draws."""
    fixtures = load_fixture_module()
    expected = json.loads((FIXTURES / "expected_answers.json").read_text())
    with fixtures.fixture_engine() as engine:
        assert engine.load_plans(str(FIXTURES / "snapshot" / "plans.pkl")) >= 1
        answers = fixtures.serve(engine)
        stats = engine.stats
    assert stats.plan_misses == 0 and stats.plan_cache_hit_rate == 1.0
    assert answers == expected["plan_store"]
