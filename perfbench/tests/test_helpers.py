"""Tests of the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import sys
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
from harness import (  # noqa: E402
    AnswerTally,
    covered_length,
    ledger_error,
    metric_total,
    percentile,
    rmse,
    slice_medians,
    stop_children,
)
from layers import unattributed_fraction  # noqa: E402
from spans import Patches, SpanRecorder, _timed  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 90) == 5.0
        assert percentile(values, 20) == 1.0
        assert percentile(values, 100) == 5.0

    def test_selects_a_sample_value(self):
        values = list(range(1, 11))
        assert percentile(values, 90) == 9
        assert percentile(values, 91) == 10

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)


class TestRmse:
    def test_from_squared_error_sum(self):
        assert rmse(8.0, 2) == 2.0

    def test_tally_against_truth(self):
        tally = AnswerTally()
        assert tally.check(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert tally.check(np.array([3.0]), np.array([1.0]))
        assert tally.rmse == pytest.approx(math.sqrt((1 + 4 + 4) / 3))
        assert not tally.errors

    def test_tally_rejects_wrong_length_and_non_finite(self):
        tally = AnswerTally()
        assert not tally.check(np.array([1.0]), np.array([1.0, 2.0]))
        assert not tally.check(np.array([np.nan, 1.0]), np.array([1.0, 2.0]))
        assert len(tally.errors) == 2
        assert tally.entries == 0


class TestLedgerCheck:
    def test_matching_delta_passes(self):
        assert ledger_error(0.5 * 3, 1.5) is None
        assert ledger_error(0.0, 0.0) is None

    def test_replay_that_charged_fails(self):
        # Two paid requests and one replay: a charged replay shows as 1.5.
        assert ledger_error(1.5, 1.0) is not None

    def test_missing_charge_fails(self):
        assert ledger_error(0.5, 1.0) is not None


class TestGenerators:
    def test_same_seed_same_inputs(self):
        assert np.array_equal(inputs.histogram(3, 256), inputs.histogram(3, 256))
        pool = inputs.shard_pool(3)
        assert all(np.array_equal(a, b) for a, b in zip(pool, inputs.shard_pool(3)))
        stream = list(itertools.islice(inputs.http_stream(3, 1), 50))
        assert stream == list(itertools.islice(inputs.http_stream(3, 1), 50))

    def test_other_seed_other_inputs(self):
        assert next(inputs.http_stream(3, 0)) != next(inputs.http_stream(4, 0))
        assert not np.array_equal(inputs.shard_pool(3)[0], inputs.shard_pool(4)[0])

    def test_http_stream_shape(self):
        streams = [list(itertools.islice(inputs.http_stream(7, c), 400)) for c in (0, 1)]
        fresh_sets = []
        for connection, stream in enumerate(streams):
            fresh = [ranges for is_fresh, _, ranges in stream if is_fresh]
            assert [is_fresh for is_fresh, _, _ in stream] == [
                i % inputs.REASK_PERIOD == 0 for i in range(400)
            ]
            assert len({tuple(r) for r in fresh}) == len(fresh)
            assert all(r[0][0] % 2 == connection for r in fresh)
            for number, (is_fresh, index, ranges) in enumerate(stream):
                assert 1 <= len(ranges) <= inputs.MAX_HTTP_RANGES
                if not is_fresh:
                    assert index < number // inputs.REASK_PERIOD + 1
                    assert ranges == fresh[index]
            fresh_sets.append({tuple(r) for r in fresh})
        assert not fresh_sets[0] & fresh_sets[1]

    def test_shard_pool_rows_stay_in_one_component(self):
        for matrix in inputs.shard_pool(1):
            assert matrix.shape == (
                inputs.SHARD_COMPONENTS * inputs.SHARD_RANGES_PER_COMPONENT,
                inputs.SHARD_CELLS,
            )
            for row in matrix:
                touched = np.flatnonzero(row)
                starts = [s for s, length in inputs.shard_segments() if s <= touched[0] < s + length]
                assert touched[-1] < starts[0] + inputs.SHARD_CELLS // inputs.SHARD_COMPONENTS

    def test_wire_rows_and_truth_match_the_matrix(self):
        ranges = [(0, 3), (5, 255), (7, 7)]
        matrix = inputs.ranges_matrix(ranges, 256)
        assert json.loads(inputs.rows_json(ranges, 256)) == matrix.astype(int).tolist()
        counts = inputs.histogram(1, 256)
        assert np.allclose(inputs.range_sums(ranges, counts), matrix @ counts)


class TestSpanCoverage:
    def test_union_of_overlapping_spans(self):
        assert covered_length((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0
        assert covered_length((0.0, 10.0), []) == 0.0

    def test_unattributed_share_single_client(self):
        spans = [("flush", 1.0, 9.0, (1,)), ("submit", 0.5, 1.0, (1, None))]
        assert unattributed_fraction([(0.0, 10.0, None)], spans) == pytest.approx(0.15)

    def test_unattributed_share_keyed_requests(self):
        spans = [
            ("dispatch", 1.0, 5.0, "a"),
            ("submit", 1.5, 2.0, (7, "a")),
            ("flush", 2.0, 6.0, (7,)),
            ("dispatch", 0.0, 10.0, "b"),
        ]
        assert unattributed_fraction([(0.0, 10.0, "a")], spans) == pytest.approx(0.5)


def test_metric_total_sums_labelled_samples():
    text = (
        "# HELP serving_shed_total Submits shed\n"
        'serving_shed_total{reason="queue_full"} 2.0\n'
        'serving_shed_total{reason="draining"} 3.0\n'
        "serving_shed_totality 9.0\n"
    )
    assert metric_total(text, "serving_shed_total") == 5.0


def test_slice_medians_take_the_median_slice():
    # Four 1-second slices; the third holds one slow request.
    requests = [(0.0, 0.5), (1.0, 1.2), (2.0, 2.9), (3.0, 3.1), (3.5, 4.5)]
    ends = [end for _, end in requests]
    sliced = slice_medians(requests, ends, 0.0, 4.0, 4)
    assert sliced["p50"] == pytest.approx(0.2)
    assert sliced["qps"] == 1.0


def test_patched_methods_record_outermost_spans_and_restore():
    class Mechanism:
        def answer(self):
            return self.inner()

        def inner(self):
            return 7

    original = Mechanism.answer
    recorder, patches = SpanRecorder(), Patches()
    depth = threading.local()
    for name in ("answer", "inner"):
        patches.replace(
            Mechanism, name, _timed(recorder, "mechanism", getattr(Mechanism, name), depth=depth)
        )
    assert Mechanism().answer() == 7
    assert [span[0] for span in recorder.spans] == ["mechanism"]
    patches.restore()
    assert Mechanism.answer is original


def test_stop_children_reaps_workers_and_the_resource_tracker():
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(0.1,))
    child.start()
    assert resource_tracker._resource_tracker._pid is not None
    stop_children()
    assert not multiprocessing.active_children()
    assert child.exitcode == 0
    assert resource_tracker._resource_tracker._pid is None
