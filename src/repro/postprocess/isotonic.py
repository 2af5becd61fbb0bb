"""Isotonic (monotone) consistency via the pool-adjacent-violators algorithm.

Section 5.4.2 of the paper observes that when the policy is the line graph,
the transformed database ``x_G`` is the vector of prefix sums and is therefore
*non-decreasing*.  Projecting the noisy estimate onto the monotone cone (the
"ConsistentEst" post-processing, following Hay et al. [10]) never increases
the L2 error and collapses it on sparse data, where many prefix sums are
equal.  The projection is computed with the classic pool-adjacent-violators
algorithm (PAVA), which runs in linear time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ReproError


def isotonic_regression(
    values: np.ndarray, weights: Optional[np.ndarray] = None, increasing: bool = True
) -> np.ndarray:
    """Weighted L2 projection of ``values`` onto the monotone cone.

    Parameters
    ----------
    values:
        The noisy sequence to make monotone.
    weights:
        Optional positive weights (all ones by default).
    increasing:
        Project onto non-decreasing sequences (default) or non-increasing
        ones.

    Returns
    -------
    numpy.ndarray
        The closest (weighted L2) monotone sequence.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return values.copy()
    if weights is None:
        weight_list = [1.0] * values.size
    else:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape != values.shape:
            raise ReproError("weights must have the same shape as values")
        if np.any(weights <= 0):
            raise ReproError("weights must be strictly positive")
        weight_list = weights.tolist()
    value_list = values.tolist()
    if not increasing:
        value_list.reverse()
        weight_list.reverse()

    # Pool adjacent violators over Python floats: a stack of blocks (mean,
    # weight, count).  The incoming block absorbs every preceding block whose
    # mean exceeds its own, merging as (m1 * w1 + m2 * w2) / (w1 + w2).  Seeded
    # answers depend on this exact merge order and arithmetic.
    block_means: list[float] = []
    block_weights: list[float] = []
    block_counts: list[int] = []
    for mean, weight in zip(value_list, weight_list):
        count = 1
        while block_means and block_means[-1] > mean:
            previous_weight = block_weights.pop()
            merged_weight = previous_weight + weight
            mean = (block_means.pop() * previous_weight + mean * weight) / merged_weight
            weight = merged_weight
            count += block_counts.pop()
        block_means.append(mean)
        block_weights.append(weight)
        block_counts.append(count)

    result = np.repeat(np.array(block_means, dtype=np.float64), block_counts)
    return result if increasing else result[::-1]


def consistent_prefix_sums(
    noisy_prefix_sums: np.ndarray,
    total: Optional[float] = None,
    non_negative: bool = True,
) -> np.ndarray:
    """Post-process noisy prefix sums into a consistent, monotone estimate.

    This is the "ConsistentEst" step used by the Blowfish mechanisms on line
    (and line-spanner) policies:

    1. project onto non-decreasing sequences (PAVA);
    2. optionally clamp below at 0 (counts cannot be negative);
    3. optionally clamp above at the publicly known database size ``total``.
    """
    estimate = isotonic_regression(noisy_prefix_sums, increasing=True)
    if non_negative:
        estimate = np.maximum(estimate, 0.0)
    if total is not None:
        estimate = np.minimum(estimate, float(total))
        # Clamping can only break monotonicity at the ends, where min/max with a
        # constant preserves order, so the estimate is still non-decreasing.
    return estimate


def distinct_block_count(values: np.ndarray, tolerance: float = 1e-9) -> int:
    """Number of constant blocks in a (monotone) sequence.

    Hay et al.'s analysis bounds the post-consistency error by the number of
    *distinct* values in the true sequence; for prefix sums that number equals
    the number of non-zero histogram cells (Section 5.4.2).  The helper is
    used by the tests and the ablation benchmarks.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return 0
    changes = np.abs(np.diff(values)) > tolerance
    return int(changes.sum()) + 1
