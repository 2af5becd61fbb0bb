"""Seeded input generators for the benchmark workloads.

Everything the engine sees in a run is built here from the run's ``--seed``:
the private histogram, the policy and the request streams.  The same seed
always gives the same inputs, so two runs of one seed differ only in timing
(and, where two clients race, in how requests group into flushes).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

Range = Tuple[int, int]  # inclusive [lo, hi] cell range

#: http-mixed serves a 256-cell histogram under the distance-threshold
#: policy with theta = 8.
SMALL_CELLS = 256
THETA = 8
#: sharded-process serves 4096 cells under a 4-component policy.
SHARD_CELLS = 4096
SHARD_COMPONENTS = 4
#: Ranges per component in one sharded-process workload (32 rows in all).
SHARD_RANGES_PER_COMPONENT = 8
#: Distinct workloads the sharded-process client cycles through.
SHARD_POOL = 16
#: Every REASK_PERIOD-th http-mixed request of a connection is a fresh
#: (paid) workload; the others re-ask an earlier one of the same connection.
REASK_PERIOD = 4
#: Re-asks pick among this many most recent fresh workloads, far fewer than
#: the answer cache holds, so a re-ask is never an eviction miss.
REASK_WINDOW = 256
MAX_HTTP_RANGES = 8


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng([int(seed), int(stream)])


def histogram(seed: int, cells: int) -> np.ndarray:
    """Private counts: a few dense clusters over a sparse background."""
    rng = _rng(seed, 0)
    counts = rng.poisson(2.0, size=cells).astype(np.float64)
    for centre in rng.integers(0, cells, size=8):
        width = int(rng.integers(2, max(3, cells // 32)))
        lo, hi = max(0, centre - width), min(cells, centre + width + 1)
        counts[lo:hi] += rng.integers(20, 200)
    return counts


def random_ranges(rng: np.random.Generator, cells: int, count: int) -> List[Range]:
    """``count`` uniformly random inclusive ranges over ``cells`` cells."""
    ends = np.sort(rng.integers(0, cells, size=(count, 2)), axis=1)
    return [(int(lo), int(hi)) for lo, hi in ends]


def ranges_matrix(ranges: Sequence[Range], cells: int, offset: int = 0) -> np.ndarray:
    """Dense 0/1 matrix with one row per range (cells shifted by ``offset``)."""
    matrix = np.zeros((len(ranges), cells))
    for row, (lo, hi) in enumerate(ranges):
        matrix[row, offset + lo : offset + hi + 1] = 1.0
    return matrix


def rows_json(ranges: Sequence[Range], cells: int) -> str:
    """The JSON rows of ``ranges_matrix(ranges, cells)``, written directly."""
    return "[%s]" % ",".join(
        "[%s]" % ",".join(["0"] * lo + ["1"] * (hi - lo + 1) + ["0"] * (cells - hi - 1))
        for lo, hi in ranges
    )


def range_sums(ranges: Sequence[Range], counts: np.ndarray) -> np.ndarray:
    """True answers ``W x`` of a range workload."""
    prefix = np.concatenate(([0.0], np.cumsum(counts)))
    return np.array([prefix[hi + 1] - prefix[lo] for lo, hi in ranges])


def http_stream(seed: int, connection: int) -> Iterator[Tuple[bool, int, List[Range]]]:
    """http-mixed requests of one connection: ``(fresh, fresh_index, ranges)``.

    Request ``i`` is fresh when ``i % REASK_PERIOD == 0``; otherwise it
    re-asks one of the connection's last ``REASK_WINDOW`` fresh workloads,
    whose answers the closed loop has already received.  Fresh workloads
    are distinct within a connection, and the first range of every fresh
    workload starts on a cell whose parity is the connection index, so two
    connections never send the same fresh workload either.
    """
    rng = _rng(seed, 100 + connection)
    fresh: List[List[Range]] = []
    seen = set()
    index = 0
    while True:
        if index % REASK_PERIOD == 0:
            while True:
                count = int(rng.integers(1, MAX_HTTP_RANGES + 1))
                ranges = random_ranges(rng, SMALL_CELLS, count)
                if ranges[0][0] % 2 == connection % 2 and tuple(ranges) not in seen:
                    break
            seen.add(tuple(ranges))
            fresh.append(ranges)
            yield True, len(fresh) - 1, ranges
        else:
            first = max(0, len(fresh) - REASK_WINDOW)
            pick = int(rng.integers(first, len(fresh)))
            yield False, pick, fresh[pick]
        index += 1


def shard_segments() -> List[Tuple[int, int]]:
    """``(start, length)`` of each policy component of the sharded domain."""
    length = SHARD_CELLS // SHARD_COMPONENTS
    return [(component * length, length) for component in range(SHARD_COMPONENTS)]


def shard_pool(seed: int) -> List[np.ndarray]:
    """The fixed sharded-process pool: each workload has rows in every component."""
    rng = _rng(seed, 2)
    pool = []
    for _ in range(SHARD_POOL):
        blocks = [
            ranges_matrix(
                random_ranges(rng, length, SHARD_RANGES_PER_COMPONENT),
                SHARD_CELLS,
                offset=start,
            )
            for start, length in shard_segments()
        ]
        pool.append(np.vstack(blocks))
    return pool
