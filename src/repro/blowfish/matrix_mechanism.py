"""Blowfish matrix mechanisms (Theorem 4.1).

Matrix mechanisms are data independent, so transformational equivalence holds
for *every* policy graph: the mechanism

    M(W, x) = W x + W_G A⁺ Lap(Δ_A / ε)^p

is ``(ε, G)``-Blowfish private whenever

* ``W_G = W' P_G`` is the transformed workload,
* ``A`` is an edge-space measurement strategy whose row space contains the
  rows of ``W_G`` (so the mean shift caused by any single policy-edge change
  can be expressed through the measurements), and
* ``Δ_A`` is the largest L1 column norm of ``A`` — the change of the
  measurements when one record moves across one policy edge.

This is exactly Equation 2 of the paper seen from the transformed side, and it
is the route the paper uses for the grid policy ``G^1_{k²}`` where no tree
transform exists ("Transformed + Privelet" in Section 6).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ..core.database import Database
from ..core.digest import matrix_digest
from ..core.rng import RandomState
from ..core.workload import Workload, WorkloadTransformCache
from ..exceptions import MechanismError
from ..mechanisms.base import (
    NoiseModel,
    basis_noise_model,
    laplace_noise,
)
from ..mechanisms.strategies import Strategy
from ..policy.graph import PolicyGraph
from ..policy.transform import PolicyTransform
from .base import BlowfishMechanism
from .strategies import edge_identity_strategy, grid_slab_strategy

StrategyBuilder = Callable[[PolicyTransform], Strategy]


class PolicyMatrixMechanism(BlowfishMechanism):
    """Matrix mechanism calibrated to the policy-specific sensitivity.

    Parameters
    ----------
    policy:
        The Blowfish policy graph.
    epsilon:
        Blowfish privacy budget.
    strategy:
        Either an explicit edge-space :class:`Strategy` (its number of columns
        must equal the number of policy edges) or a callable that builds one
        from the policy transform.  Defaults to the edge-identity strategy,
        i.e. "Transformed + Laplace".
    budget_fraction:
        Fraction of ``epsilon`` actually used by the measurements.  The
        default 1 is correct when the strategy is used directly on the policy;
        spanner-based constructions pass ``1 / stretch`` (Corollary 4.6).

    Notes
    -----
    The mechanism is data independent; its error does not depend on the
    database, only on the reconstruction ``W_G A⁺`` and the noise scale
    ``Δ_A / ε``.

    **Serialisability contract.**  Instances pickle end-to-end: a strategy
    *builder* callable is applied at construction and never stored (only the
    built :class:`~repro.mechanisms.strategies.Strategy` — sparse matrices —
    travels), the shared transform re-derives its factorisation lazily, and
    the workload-transform memo re-hydrates with a fresh lock.  This is what
    lets the serving engine ship matrix-mechanism plans to worker processes
    and persist them across restarts.
    """

    name = "PolicyMatrixMechanism"
    data_dependent = False

    def __init__(
        self,
        policy: PolicyGraph,
        epsilon: float,
        strategy: Optional[Strategy | StrategyBuilder] = None,
        budget_fraction: float = 1.0,
        transform: Optional[PolicyTransform] = None,
    ) -> None:
        super().__init__(policy, epsilon, transform=transform)
        if not 0 < budget_fraction <= 1:
            raise MechanismError(
                f"budget_fraction must be in (0, 1], got {budget_fraction}"
            )
        self._budget_fraction = float(budget_fraction)
        if strategy is None:
            built = edge_identity_strategy(self.transform)
        elif isinstance(strategy, Strategy):
            built = strategy
        else:
            built = strategy(self.transform)
        if built.num_columns != self.transform.num_edges:
            raise MechanismError(
                f"Strategy has {built.num_columns} columns but the policy has "
                f"{self.transform.num_edges} edges"
            )
        self._strategy = built
        self._workload_cache = WorkloadTransformCache(maxsize=8)

    # ------------------------------------------------------------- properties
    @property
    def strategy(self) -> Strategy:
        """The edge-space measurement strategy ``A``."""
        return self._strategy

    @property
    def effective_epsilon(self) -> float:
        """Budget actually used to scale the noise (``ε · budget_fraction``)."""
        return self.epsilon * self._budget_fraction

    # ------------------------------------------------------------------- API
    def _answer(
        self,
        workload: Workload,
        database: Database,
        random_state: RandomState,
    ) -> np.ndarray:
        transformed = self._transformed_workload(workload)
        noise = laplace_noise(
            self._strategy.sensitivity / self.effective_epsilon,
            self._strategy.num_measurements,
            random_state,
        )
        correction = self._strategy.apply_pseudo_inverse(noise)
        true_answers = workload.answer(database)
        return true_answers + np.asarray(transformed @ correction).ravel()

    def expected_error_per_query(self, workload: Workload) -> np.ndarray:
        """Exact expected squared error of every query (dense; small workloads only)."""
        transformed = self._transformed_workload(workload)
        dense_transformed = np.asarray(transformed.todense())
        dense_strategy = np.asarray(self._strategy.matrix.todense())
        pseudo = np.linalg.pinv(dense_strategy)
        reconstruction = dense_transformed @ pseudo
        scale = self._strategy.sensitivity / self.effective_epsilon
        return 2.0 * (scale**2) * np.sum(reconstruction**2, axis=1)

    def check_supports(self, workload: Workload, tolerance: float = 1e-6) -> bool:
        """Verify ``W_G A⁺ A = W_G`` (dense; small workloads only)."""
        transformed = np.asarray(self._transformed_workload(workload).todense())
        dense_strategy = np.asarray(self._strategy.matrix.todense())
        pseudo = np.linalg.pinv(dense_strategy)
        return bool(
            np.allclose(transformed @ pseudo @ dense_strategy, transformed, atol=tolerance)
        )

    def noise_model(self, workload: Workload) -> Optional[NoiseModel]:
        """Exact noise profile of one invocation: ``W_G A⁺`` at Laplace scale.

        The mechanism's noise is ``W_G A⁺ η`` with ``η`` i.i.d.
        Laplace(Δ_A/ε), so the factor basis is ``√2 (Δ_A/ε) · W_G A⁺`` for
        unit-variance factors.  Memoised per workload signature alongside
        the transformed workload.  Strategies without an explicit
        pseudo-inverse derive one through the process-wide factorisation
        store (once per distinct strategy matrix, shared across every plan
        and ε); only strategies too large to invert densely fall back to
        per-row LSQR, and only truly huge workloads on those degrade to the
        ``2/ε²`` proxy (``None``).
        """
        cache = getattr(self, "_noise_cache", None)
        if cache is None:
            # Lazily (re)created so plans pickled before this attribute
            # existed keep answering after re-hydration.
            cache = self._noise_cache = WorkloadTransformCache(maxsize=8)
        return cache.get_or_compute(workload, self._compute_noise_model)

    #: Last-resort safety valve: with no explicit pseudo-inverse *and* a
    #: strategy too large for the store's dense derivation, the factor basis
    #: costs one iterative solve per workload row; above this many rows the
    #: model is skipped (proxy fallback) rather than stalling the execute
    #: stage.  Raised from the PR 4 value of 512 now that the common wide
    #: strategies resolve through the store-cached ``A⁺`` instead.
    _NOISE_MODEL_LSQR_ROW_LIMIT = 4096

    #: Maximum strategy size (rows × columns) the store derives a dense
    #: pseudo-inverse for.  ``A⁺`` is generally dense, so the cap bounds both
    #: the one-off SVD cost and the resident artifact (~32 MiB of float64).
    _STRATEGY_PINV_DENSE_CELLS = 1 << 22

    def _strategy_pseudo_inverse(self) -> Optional[sp.csr_matrix]:
        """The strategy's ``A⁺``: explicit, store-derived, or ``None``.

        The derived inverse is keyed by the strategy matrix's content digest
        in the process-wide factorisation store, so the (dense, cubic) pinv
        runs once per distinct strategy per process no matter how many
        plans, workloads or ε values reuse it.
        """
        if self._strategy.pseudo_inverse is not None:
            return self._strategy.pseudo_inverse
        matrix = self._strategy.matrix
        if matrix.shape[0] * matrix.shape[1] > self._STRATEGY_PINV_DENSE_CELLS:
            return None
        handle = getattr(self, "_strategy_pinv_handle", None)
        if handle is None:
            from ..engine.factorisation import get_store

            handle = get_store().get_or_build(
                "strategy-pinv",
                matrix_digest(matrix),
                lambda: sp.csr_matrix(np.linalg.pinv(matrix.toarray())),
            )
            self._strategy_pinv_handle = handle
        return handle.value

    def __getstate__(self) -> dict:
        """Pickle support: factorisation-store handles never travel.

        The derived ``A⁺`` handle re-resolves lazily (by content digest) in
        the receiving process, so worker-side re-hydration shares the
        worker-local store instead of shipping a dense inverse.
        """
        state = self.__dict__.copy()
        state.pop("_strategy_pinv_handle", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.pop("_strategy_pinv_handle", None)

    def _compute_noise_model(self, workload: Workload) -> Optional[NoiseModel]:
        transformed = self._transformed_workload(workload)
        pseudo_inverse = self._strategy_pseudo_inverse()
        if pseudo_inverse is not None:
            reconstruction = sp.csr_matrix(transformed @ pseudo_inverse)
        elif transformed.shape[0] > self._NOISE_MODEL_LSQR_ROW_LIMIT:
            return None
        else:
            # Row i of W_G A⁺ is (Aᵀ)⁺ w_i: the minimum-norm solution of
            # Aᵀ z = w_i, solved iteratively when no explicit A⁺ exists.
            strategy_t = sp.csc_matrix(self._strategy.matrix.T)
            rows = [
                sp.linalg.lsqr(
                    strategy_t,
                    np.asarray(transformed.getrow(i).todense()).ravel(),
                    atol=1e-12,
                    btol=1e-12,
                )[0]
                for i in range(transformed.shape[0])
            ]
            reconstruction = sp.csr_matrix(np.vstack(rows)) if rows else sp.csr_matrix(
                (0, self._strategy.num_measurements)
            )
        scale = np.sqrt(2.0) * self._strategy.sensitivity / self.effective_epsilon
        return basis_noise_model(reconstruction * scale)

    # ----------------------------------------------------------------- helper
    def _transformed_workload(self, workload: Workload) -> sp.csr_matrix:
        # Signature-keyed and lock-guarded: cached plans are invoked from
        # concurrent engine flushes (see Mechanism's re-entrancy contract).
        return self._workload_cache.get_or_compute(
            workload, self.transform.transform_workload
        )


def transformed_laplace_mechanism(
    policy: PolicyGraph,
    epsilon: float,
    budget_fraction: float = 1.0,
    transform: Optional[PolicyTransform] = None,
) -> PolicyMatrixMechanism:
    """"Transformed + Laplace": measure every transformed coordinate with Laplace noise.

    On the line policy this is Algorithm 1 with the Laplace estimate of the
    prefix sums; its per-range-query error is Θ(1/ε²) (Theorem 5.2).
    """
    mechanism = PolicyMatrixMechanism(
        policy=policy,
        epsilon=epsilon,
        strategy=edge_identity_strategy,
        budget_fraction=budget_fraction,
        transform=transform,
    )
    mechanism.name = "Transformed+Laplace"
    return mechanism


def transformed_privelet_grid_mechanism(
    policy: PolicyGraph,
    epsilon: float,
    transform: Optional[PolicyTransform] = None,
) -> PolicyMatrixMechanism:
    """"Transformed + Privelet" for the grid policy ``G^1_{k^d}`` (Theorem 5.4).

    Measures every slab of grid edges with a (d-1)-dimensional Haar strategy;
    the per-query error is ``O(d log^{3(d-1)} k / ε²)``.
    """
    mechanism = PolicyMatrixMechanism(
        policy=policy,
        epsilon=epsilon,
        strategy=lambda transform: grid_slab_strategy(transform),
        transform=transform,
    )
    mechanism.name = "Transformed+Privelet"
    return mechanism
