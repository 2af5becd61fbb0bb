"""Byte-identity of :func:`repro.postprocess.isotonic_regression` against an oracle.

``_oracle_isotonic_regression`` is a verbatim copy of the original
pool-adjacent-violators implementation (numpy-scalar iteration, one stack
per block field).  The library version may be restructured for speed, but it
must perform the same merges with the same IEEE operations
``(m1 * w1 + m2 * w2) / (w1 + w2)``, so its output matches the oracle byte
for byte: seeded Blowfish answers that pass through ConsistentEst
(Section 5.4.2) must not change.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.postprocess import isotonic_regression


def _oracle_isotonic_regression(
    values: np.ndarray, weights: Optional[np.ndarray] = None, increasing: bool = True
) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return values.copy()
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape != values.shape:
            raise ReproError("weights must have the same shape as values")
        if np.any(weights <= 0):
            raise ReproError("weights must be strictly positive")

    if not increasing:
        return _oracle_isotonic_regression(values[::-1], weights[::-1], increasing=True)[::-1]

    # Pool adjacent violators: maintain a stack of blocks (mean, weight, count).
    block_means: list[float] = []
    block_weights: list[float] = []
    block_counts: list[int] = []
    for value, weight in zip(values, weights):
        block_means.append(float(value))
        block_weights.append(float(weight))
        block_counts.append(1)
        while len(block_means) > 1 and block_means[-2] > block_means[-1]:
            merged_weight = block_weights[-2] + block_weights[-1]
            merged_mean = (
                block_means[-2] * block_weights[-2] + block_means[-1] * block_weights[-1]
            ) / merged_weight
            merged_count = block_counts[-2] + block_counts[-1]
            for stack in (block_means, block_weights, block_counts):
                stack.pop()
                stack.pop()
            block_means.append(merged_mean)
            block_weights.append(merged_weight)
            block_counts.append(merged_count)

    result = np.empty_like(values)
    position = 0
    for mean, count in zip(block_means, block_counts):
        result[position : position + count] = mean
        position += count
    return result


def _inputs():
    rng = np.random.default_rng(20151)
    cases = {}
    for size in (1, 2, 7, 64, 1023):
        cases[f"random-{size}"] = rng.normal(0.0, 10.0, size)
    for size, scale in ((256, 1.0), (1024, 4.0), (4096, 16.0)):
        counts = rng.poisson(0.3, size).astype(np.float64)
        prefix = np.cumsum(counts)
        cases[f"noisy-prefix-{size}"] = prefix + rng.laplace(0.0, scale, size)
    cases["ties"] = rng.integers(0, 4, 500).astype(np.float64)
    cases["ties-descending"] = np.repeat([5.0, 3.0, 3.0, 1.0, 1.0, 0.0], 40)
    cases["ties-noisy"] = np.round(rng.normal(0.0, 1.0, 800), 1)
    cases["all-zero"] = np.zeros(300)
    cases["signed-zero"] = np.array([0.0, -0.0, 0.0, -0.0, -0.0])
    cases["monotone"] = np.sort(rng.normal(0.0, 5.0, 400))
    cases["monotone-steps"] = np.repeat(np.arange(20, dtype=np.float64), 13)
    cases["large-scale"] = 1e12 + np.cumsum(rng.poisson(1.0, 600)) + rng.laplace(0, 50.0, 600)
    cases["large-scale-signed"] = rng.normal(0.0, 1e12, 700)
    return cases


_CASES = _inputs()


def _assert_byte_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("increasing", [True, False])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_matches_oracle_unweighted(name, increasing):
    values = _CASES[name]
    _assert_byte_equal(
        isotonic_regression(values, increasing=increasing),
        _oracle_isotonic_regression(values, increasing=increasing),
    )


@pytest.mark.parametrize("increasing", [True, False])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_matches_oracle_weighted(name, increasing):
    values = _CASES[name]
    rng = np.random.default_rng(len(values))
    weights = rng.uniform(0.1, 10.0, values.shape[0])
    _assert_byte_equal(
        isotonic_regression(values, weights=weights, increasing=increasing),
        _oracle_isotonic_regression(values, weights=weights, increasing=increasing),
    )


@pytest.mark.parametrize("increasing", [True, False])
def test_matches_oracle_integer_weights_and_input(increasing):
    values = np.array([5, 1, 4, 4, 2, 8, 0, 3])
    weights = np.array([1, 3, 2, 2, 1, 1, 5, 2])
    _assert_byte_equal(
        isotonic_regression(values, weights=weights, increasing=increasing),
        _oracle_isotonic_regression(values, weights=weights, increasing=increasing),
    )


def test_empty_input_matches_oracle():
    _assert_byte_equal(isotonic_regression(np.array([])), _oracle_isotonic_regression(np.array([])))
