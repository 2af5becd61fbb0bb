"""Edge-space measurement strategies for Blowfish matrix mechanisms (Section 5).

The transformed workload ``W_G`` lives over the policy *edges*; the Section 5
strategies measure well-chosen groups of edges:

* :func:`edge_identity_strategy` — measure every edge value once.  On tree
  policies the edge values are subtree counts (prefix sums for the line
  graph), so this is exactly Algorithm 1's "Transformed + Laplace".
* :func:`grid_slab_strategy` — for the grid policy ``G^1_{k^d}``, partition
  the edges into *slabs*: the edges pointing along axis ``a`` that share the
  same level ``j`` along that axis form a ``(d-1)``-dimensional grid (the
  "rows of vertical edges" of Figure 5b).  Each slab is measured with its own
  ``(d-1)``-dimensional strategy (tensor Haar / Privelet by default); slabs
  are disjoint, so the sensitivity is the per-slab sensitivity (parallel
  composition) and a transformed range query touches ``2d`` slab ranges
  (Lemma 5.1, Theorem 5.4).
* :func:`spanner_group_strategy` — for the 1-D threshold spanner ``H^θ_k``
  (Figure 6d), measure every group of θ edges hanging off one red vertex with
  its own 1-D strategy; groups are disjoint (Theorem 5.5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.domain import Domain
from ..exceptions import PolicyError
from ..mechanisms.strategies import (
    Strategy,
    block_diagonal_strategy,
    haar_strategy,
    identity_strategy,
    kron_strategy,
)
from ..policy.graph import PolicyGraph, is_bottom
from ..policy.spanner import line_spanner_groups
from ..policy.transform import PolicyTransform

StrategyFactory = Callable[[int], Strategy]


def edge_identity_strategy(transform: PolicyTransform) -> Strategy:
    """Measure every transformed-domain (edge) coordinate once."""
    return identity_strategy(transform.num_edges)


def tensor_strategy(shape: Sequence[int], per_axis: StrategyFactory) -> Strategy:
    """Tensor-product strategy over a multi-dimensional block of coordinates."""
    shape = [int(s) for s in shape]
    if not shape:
        raise PolicyError("tensor_strategy needs at least one dimension")
    strategy: Optional[Strategy] = None
    for extent in shape:
        axis_strategy = per_axis(extent)
        strategy = (
            axis_strategy
            if strategy is None
            else kron_strategy(strategy, axis_strategy)
        )
    assert strategy is not None
    return strategy


def grid_slab_groups(policy: PolicyGraph) -> List[Tuple[List[int], Tuple[int, ...]]]:
    """Partition the edges of a unit grid policy ``G^1_{k^d}`` into slabs.

    Every edge of the policy connects two cells differing by exactly 1 along a
    single axis ``a``; the slab of an edge is identified by ``(a, j)`` where
    ``j`` is the smaller coordinate along ``a``.  Within a slab the edges form
    a full ``(d-1)``-dimensional grid indexed by the remaining coordinates and
    are returned in row-major order of those coordinates, together with the
    slab's shape.

    Raises :class:`~repro.exceptions.PolicyError` for edges that are not
    unit-grid edges (θ > 1 policies must go through a spanner instead).
    """
    domain = policy.domain
    slabs: Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], int]]] = {}
    for edge_index, (u, v) in enumerate(policy.edges):
        if is_bottom(u) or is_bottom(v):
            raise PolicyError("Grid slab decomposition expects a bounded policy (no bottom)")
        cell_u = np.array(domain.cell_of(int(u)))
        cell_v = np.array(domain.cell_of(int(v)))
        difference = cell_v - cell_u
        nonzero_axes = np.nonzero(difference)[0]
        if nonzero_axes.size != 1 or abs(int(difference[nonzero_axes[0]])) != 1:
            raise PolicyError(
                "Grid slab decomposition requires unit-grid edges (policy G^1); "
                f"edge {edge_index} connects cells {tuple(cell_u)} and {tuple(cell_v)}"
            )
        axis = int(nonzero_axes[0])
        level = int(min(cell_u[axis], cell_v[axis]))
        other = tuple(int(c) for i, c in enumerate(cell_u) if i != axis)
        slabs.setdefault((axis, level), []).append((other, edge_index))

    groups: List[Tuple[List[int], Tuple[int, ...]]] = []
    for axis, level in sorted(slabs):
        entries = sorted(slabs[(axis, level)])
        slab_shape = tuple(
            extent for i, extent in enumerate(domain.shape) if i != axis
        )
        expected = int(np.prod(slab_shape)) if slab_shape else 1
        if len(entries) != expected:
            raise PolicyError(
                f"Slab (axis={axis}, level={level}) has {len(entries)} edges, expected "
                f"{expected}; the policy is not a full unit grid"
            )
        groups.append(([edge_index for _, edge_index in entries], slab_shape))
    return groups


def grid_slab_strategy(
    transform: PolicyTransform,
    per_axis_strategy: StrategyFactory = haar_strategy,
) -> Strategy:
    """The Section 5.2.2 strategy: one ``(d-1)``-D strategy per slab of grid edges.

    Parameters
    ----------
    transform:
        Policy transform of a unit grid policy ``G^1_{k^d}``.
    per_axis_strategy:
        Factory building the 1-D strategy tensored within each slab; the
        default Haar strategy reproduces "Transformed + Privelet", while
        :func:`repro.mechanisms.strategies.identity_strategy` gives the
        cheaper "Transformed + Laplace" variant.

    Notes
    -----
    Slabs partition the edge set, so the strategy's sensitivity equals the
    per-slab sensitivity — the parallel composition of Theorem 5.4.  A
    transformed ``d``-dimensional range query is the signed sum of at most
    ``2d`` ``(d-1)``-dimensional range queries, one per face, each living in a
    single slab (Lemma 5.1).
    """
    groups = grid_slab_groups(transform.policy)
    blocks = []
    for edge_indices, slab_shape in groups:
        shape = slab_shape if slab_shape else (1,)
        blocks.append((edge_indices, tensor_strategy(shape, per_axis_strategy)))
    return block_diagonal_strategy(
        blocks, num_columns=transform.num_edges, name="grid-slabs"
    )


def spanner_group_strategy(
    spanner_transform: PolicyTransform,
    domain: Domain,
    theta: int,
    per_group_strategy: StrategyFactory = haar_strategy,
) -> Strategy:
    """The Section 5.3.1 strategy over the groups of the spanner ``H^θ_k``.

    Each group (the edges attached to one red vertex from its left,
    Figure 6d) is measured with its own 1-D strategy; the groups partition the
    edge set so the sensitivity is the per-group sensitivity.  Remember that a
    mechanism using this strategy must run with budget ``ε / stretch`` to
    guarantee ``(ε, G^θ_k)``-Blowfish privacy (Corollary 4.6).
    """
    groups = line_spanner_groups(domain, theta)
    covered = sum(len(group) for group in groups)
    if covered != spanner_transform.num_edges:
        raise PolicyError(
            f"Spanner groups cover {covered} edges but the transform has "
            f"{spanner_transform.num_edges}"
        )
    blocks = [(group, per_group_strategy(len(group))) for group in groups]
    return block_diagonal_strategy(
        blocks, num_columns=spanner_transform.num_edges, name=f"theta-groups({theta})"
    )
