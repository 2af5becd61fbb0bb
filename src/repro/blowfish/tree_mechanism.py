"""Blowfish mechanisms through the exact tree transform (Theorem 4.3).

When the (reduced) policy graph is a tree, *any* ε-differentially private
mechanism applied to the transformed instance ``(W_G, x_G)`` yields an
``(ε, G)``-Blowfish private mechanism for ``(W, x)`` — including
data-dependent mechanisms such as DAWA, which is how the paper obtains its
best results on sparse data (Section 5.4).  For non-tree policies that admit a
low-stretch spanning tree (the θ-threshold policies via ``H^θ_k``), the same
construction runs on the spanner with budget ``ε / stretch``
(Lemma 4.5 / Corollary 4.6).

:class:`TreeTransformMechanism` packages the whole pipeline:

1. compute the transformed database ``x_G`` (subtree counts; prefix sums for
   the line policy);
2. estimate it with a pluggable ε-DP histogram estimator (Laplace, DAWA, ...);
3. optionally enforce the structural constraints of ``x_G``
   (non-decreasing along the root path for path policies, non-negativity,
   upper bound ``n``) — the consistency step of Section 5.4.2;
4. answer the workload as ``W_G x̃_G`` plus the public Case II offset.
"""

from __future__ import annotations

from typing import Callable, Literal, Optional

import numpy as np
import scipy.sparse as sp

from ..core.database import Database
from ..core.rng import RandomState
from ..core.workload import Workload, WorkloadTransformCache
from ..exceptions import MechanismError, PolicyNotTreeError
from ..mechanisms.base import (
    HistogramMechanism,
    NoiseModel,
    basis_noise_model,
)
from ..mechanisms.dawa import DawaMechanism
from ..mechanisms.laplace import LaplaceHistogram
from ..policy.graph import PolicyGraph
from ..policy.spanner import SpannerApproximation
from ..policy.transform import PolicyTransform
from ..policy.tree import TreeTransform
from ..postprocess.isotonic import isotonic_regression
from .base import BlowfishMechanism

EstimatorFactory = Callable[[float, int], HistogramMechanism]
ConsistencyMode = Literal["auto", "none", "monotone", "nonnegative"]


def laplace_estimator_factory(epsilon: float, num_coordinates: int) -> HistogramMechanism:
    """Default estimator: per-coordinate Laplace noise with sensitivity 1.

    Sensitivity 1 is correct because Blowfish neighbors of a tree policy map
    to transformed vectors at L1 distance exactly 1 (Lemma 4.9).
    """
    return LaplaceHistogram(epsilon=epsilon, sensitivity=1.0)


def dawa_estimator_factory(epsilon: float, num_coordinates: int) -> HistogramMechanism:
    """DAWA estimator over the transformed (edge-ordered) database."""
    return DawaMechanism(epsilon=epsilon, shape=(num_coordinates,), sensitivity=1.0)


class TreeTransformMechanism(BlowfishMechanism):
    """Run any DP histogram estimator on the tree-transformed instance.

    Parameters
    ----------
    policy:
        The policy graph the Blowfish guarantee refers to.
    epsilon:
        Blowfish privacy budget.
    estimator_factory:
        Builds the DP estimator for the transformed database; receives the
        *effective* budget (``ε`` or ``ε / stretch``) and the number of
        transformed coordinates.
    spanner:
        Optional spanning-tree approximation.  When given, the transform runs
        on ``spanner.spanner`` with budget ``ε / spanner.stretch``
        (Corollary 4.6); ``spanner.original`` must equal ``policy``.
    consistency:
        Post-processing of the noisy transformed database:

        * ``"monotone"`` — project onto non-decreasing sequences along the
          root path (only valid for path-shaped trees such as the line
          policy);
        * ``"nonnegative"`` — clamp to ``[0, n]`` (valid for every tree, since
          transformed values are subtree counts);
        * ``"auto"`` — monotone when the tree is a path, otherwise
          non-negative;
        * ``"none"`` — leave the estimate untouched.

    Notes
    -----
    **Serialisability contract.**  Instances pickle end-to-end (the engine's
    process-parallel execute backend ships them to worker processes, and the
    plan store persists them to disk): the shared transforms drop their lazy
    Gram factorisation and re-derive it deterministically on first use, and
    the workload-transform memo travels warm with a fresh lock.  One caveat
    is ``estimator_factory`` — it is stored as given, so passing a lambda or
    a closure produces a mechanism that answers fine in-process but cannot
    cross a process boundary (the engine rolls such a batch back with a
    serialisation error).  Use module-level factories like
    :func:`laplace_estimator_factory` / :func:`dawa_estimator_factory` when
    the mechanism must travel.
    """

    name = "TreeTransform"
    data_dependent = True

    def __init__(
        self,
        policy: PolicyGraph,
        epsilon: float,
        estimator_factory: EstimatorFactory = laplace_estimator_factory,
        spanner: Optional[SpannerApproximation] = None,
        consistency: ConsistencyMode = "auto",
        transform: Optional[PolicyTransform] = None,
    ) -> None:
        super().__init__(policy, epsilon, transform=transform)
        if consistency not in ("auto", "none", "monotone", "nonnegative"):
            raise MechanismError(f"Unknown consistency mode {consistency!r}")
        self._consistency: ConsistencyMode = consistency
        self._estimator_factory = estimator_factory
        self._spanner = spanner

        if spanner is not None:
            if spanner.original != policy:
                raise MechanismError(
                    "The spanner approximation was built for a different policy"
                )
            working_policy = spanner.spanner
            self._effective_epsilon = spanner.budget_for(epsilon)
        else:
            working_policy = policy
            self._effective_epsilon = epsilon

        self._working_transform = (
            self.transform if spanner is None else PolicyTransform(working_policy)
        )
        if not self._working_transform.is_tree():
            raise PolicyNotTreeError(
                "TreeTransformMechanism requires a tree policy (Theorem 4.3); "
                "pass a spanning-tree approximation for non-tree policies (Lemma 4.5)."
            )
        self._tree = TreeTransform(self._working_transform)
        self._monotone_order = self._tree.monotone_root_path_indices()
        self._workload_cache = WorkloadTransformCache(maxsize=8)

    # ------------------------------------------------------------- properties
    @property
    def effective_epsilon(self) -> float:
        """Budget handed to the DP estimator (``ε`` or ``ε / stretch``)."""
        return self._effective_epsilon

    @property
    def spanner(self) -> Optional[SpannerApproximation]:
        """The spanning-tree approximation in use, if any."""
        return self._spanner

    @property
    def tree(self) -> TreeTransform:
        """The tree transform of the working (tree) policy."""
        return self._tree

    # ------------------------------------------------------------------- API
    def _answer(
        self,
        workload: Workload,
        database: Database,
        random_state: RandomState,
    ) -> np.ndarray:
        transformed_database = self._tree.transform_database(database)
        estimator = self._estimator_factory(
            self._effective_epsilon, transformed_database.shape[0]
        )
        estimate = estimator.estimate_vector(transformed_database, random_state)
        estimate = self._apply_consistency(estimate, total=database.scale)

        transformed_workload = self._transformed_workload(workload)
        answers = np.asarray(transformed_workload @ estimate).ravel()
        return answers + self._working_transform.offset(workload, database)

    def estimate_transformed_database(
        self, database: Database, random_state: RandomState = None
    ) -> np.ndarray:
        """Expose the (consistent) private estimate of ``x_G`` for diagnostics."""
        transformed_database = self._tree.transform_database(database)
        estimator = self._estimator_factory(
            self._effective_epsilon, transformed_database.shape[0]
        )
        estimate = estimator.estimate_vector(transformed_database, random_state)
        return self._apply_consistency(estimate, total=database.scale)

    def noise_model(self, workload: Workload) -> Optional[NoiseModel]:
        """Noise profile of one invocation: ``W_G`` applied to the cell noise.

        The estimator perturbs the transformed database coordinate-wise, so
        the answers' noise is ``W_G · cell-noise`` — an exact linear factor
        model whenever the estimator can state its per-cell scales
        (:meth:`~repro.mechanisms.base.HistogramMechanism.noise_std_per_cell`)
        **and** no consistency projection runs.  Returns ``None`` for
        data-dependent estimators (DAWA).  With a consistency projection
        enabled the release is a *nonlinear* function of the draw, so the
        factor basis would fabricate cross-correlations; the model then
        keeps only the per-row stds — conservative marginals (projection
        onto a convex constraint set containing the truth never grows the
        error) with correlations honestly declared unknown.
        """
        transformed = self._transformed_workload(workload)
        estimator = self._estimator_factory(
            self._effective_epsilon, transformed.shape[1]
        )
        cell_stds = getattr(estimator, "noise_std_per_cell", lambda n: None)(
            transformed.shape[1]
        )
        if cell_stds is None:
            return None
        model = basis_noise_model(transformed @ sp.diags(cell_stds))
        if self._consistency != "none":
            return NoiseModel(stds=model.stds, basis=None)
        return model

    # ----------------------------------------------------------------- helper
    def _apply_consistency(self, estimate: np.ndarray, total: float) -> np.ndarray:
        mode = self._consistency
        if mode == "auto":
            mode = "monotone" if self._monotone_order is not None else "nonnegative"
        if mode == "none":
            return estimate
        if mode == "monotone":
            if self._monotone_order is None:
                raise MechanismError(
                    "Monotone consistency requires a path-shaped tree policy"
                )
            result = estimate.copy()
            ordered = estimate[self._monotone_order]
            projected = isotonic_regression(ordered, increasing=True)
            projected = np.clip(projected, 0.0, total)
            result[self._monotone_order] = projected
            return result
        # Non-negative (and at most n) clamping is valid for every tree because
        # transformed values are subtree counts.
        return np.clip(estimate, 0.0, total)

    def _transformed_workload(self, workload: Workload):
        # Signature-keyed and lock-guarded: cached plans are invoked from
        # concurrent engine flushes (see Mechanism's re-entrancy contract).
        # The compute itself resolves through the process-wide factorisation
        # store (keyed by transform digest + workload signature), so sibling
        # plans at other ε values — and worker-side re-hydrations — share
        # one W_G product per distinct content.
        return self._workload_cache.get_or_compute(
            workload, self._working_transform.transform_workload
        )
