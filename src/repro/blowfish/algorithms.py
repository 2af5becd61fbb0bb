"""Named algorithms of the paper's evaluation (Section 6).

The experiments compare ``ε/2``-differentially private baselines against
``(ε, G)``-Blowfish mechanisms.  This module provides one constructor per
named algorithm so that the experiment harness, the examples and downstream
users all build exactly the same configurations:

Differentially private baselines (run at ``ε/2`` as in the paper):

* ``Laplace``      — :func:`dp_laplace_baseline`
* ``Privelet``     — :func:`dp_privelet_baseline`
* ``Dawa``         — :func:`dp_dawa_baseline`

Blowfish mechanisms (run at the full ``ε``):

* ``Transformed + Laplace``       — :func:`blowfish_transformed_laplace`
* ``Transformed + ConsistentEst`` — :func:`blowfish_transformed_consistent`
* ``Trans + Dawa (+ Cons)``       — :func:`blowfish_transformed_dawa`
* ``Transformed + Privelet``      — :func:`blowfish_transformed_privelet_grid`

Every constructor returns an object exposing ``name``, ``data_dependent`` and
``answer(workload, database, random_state)``, so callers can mix baselines and
Blowfish mechanisms freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.database import Database
from ..core.rng import RandomState
from ..core.workload import Workload, stack_workloads
from ..exceptions import MechanismError
from ..mechanisms.base import Mechanism
from ..mechanisms.dawa import DawaMechanism
from ..mechanisms.laplace import LaplaceHistogram
from ..mechanisms.privelet import PriveletMechanism
from ..policy.graph import PolicyGraph
from ..policy.spanner import SpannerApproximation, approximate_with_line_spanner
from ..policy.transform import PolicyTransform
from .matrix_mechanism import (
    PolicyMatrixMechanism,
    transformed_laplace_mechanism,
    transformed_privelet_grid_mechanism,
)
from .tree_mechanism import (
    TreeTransformMechanism,
    dawa_estimator_factory,
    laplace_estimator_factory,
)


@dataclass
class NamedAlgorithm:
    """A uniformly shaped handle on a baseline or Blowfish mechanism."""

    name: str
    mechanism: object
    data_dependent: bool

    def answer(
        self,
        workload: Workload,
        database: Database,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Noisy workload answers from the wrapped mechanism."""
        return self.mechanism.answer(workload, database, random_state)

    def answer_batch(
        self,
        workloads: Sequence[Workload],
        database: Database,
        random_state: RandomState = None,
    ) -> list[np.ndarray]:
        """Answer several workloads in one mechanism invocation (one ε spend)."""
        return self.mechanism.answer_batch(workloads, database, random_state)

    def noise_model(self, workload: Workload):
        """The wrapped mechanism's honest noise profile, or ``None``.

        ``None`` also covers any failure computing the model — metadata is
        advisory, so it must never turn a valid release into a refusal.
        """
        try:
            return self.mechanism.noise_model(workload)
        except Exception:
            return None

    def answer_batch_with_noise(
        self,
        workloads: Sequence[Workload],
        database: Database,
        random_state: RandomState = None,
    ):
        """:meth:`answer_batch` plus the noise metadata of the stacked rows.

        Draws are identical to :meth:`answer_batch` (one stacked invocation,
        same stream).  The engine stacks in its pipeline and calls
        :meth:`answer` and :meth:`noise_model` itself; this stays for callers
        that hold unstacked members (perfbench's span hooks name it).
        """
        stacked, slices = stack_workloads(workloads)
        answers = self.answer(stacked, database, random_state)
        return [answers[rows] for rows in slices], self.noise_model(stacked)


# ---------------------------------------------------------------------------
# Differentially private baselines (ε/2, matching the paper's comparison).
# ---------------------------------------------------------------------------
def dp_laplace_baseline(epsilon: float, dp_fraction: float = 0.5) -> NamedAlgorithm:
    """The ``ε/2``-DP Laplace (identity-strategy) baseline for histograms."""
    mechanism: Mechanism = LaplaceHistogram(epsilon * dp_fraction)
    return NamedAlgorithm(name="Laplace", mechanism=mechanism, data_dependent=False)


def dp_privelet_baseline(
    epsilon: float, shape: Sequence[int], dp_fraction: float = 0.5
) -> NamedAlgorithm:
    """The ``ε/2``-DP Privelet baseline for range queries."""
    mechanism = PriveletMechanism(epsilon * dp_fraction, shape)
    return NamedAlgorithm(name="Privelet", mechanism=mechanism, data_dependent=False)


def dp_dawa_baseline(
    epsilon: float, shape: Sequence[int], dp_fraction: float = 0.5
) -> NamedAlgorithm:
    """The ``ε/2``-DP DAWA baseline (data dependent)."""
    mechanism = DawaMechanism(epsilon * dp_fraction, shape)
    return NamedAlgorithm(name="Dawa", mechanism=mechanism, data_dependent=True)


# ---------------------------------------------------------------------------
# Blowfish mechanisms.
# ---------------------------------------------------------------------------
def _spanner_for(
    policy: PolicyGraph, spanner: Optional[SpannerApproximation], theta: Optional[int]
) -> Optional[SpannerApproximation]:
    """Resolve the spanner to use: an explicit one, one built from θ, or none."""
    if spanner is not None:
        return spanner
    if theta is not None and theta > 1:
        if policy.domain.ndim != 1:
            raise MechanismError(
                "Automatic spanner construction is only available for 1-D θ-threshold "
                "policies; pass an explicit SpannerApproximation otherwise"
            )
        return approximate_with_line_spanner(policy, theta)
    return None


def blowfish_transformed_laplace(
    policy: PolicyGraph,
    epsilon: float,
    spanner: Optional[SpannerApproximation] = None,
    theta: Optional[int] = None,
    transform: Optional[PolicyTransform] = None,
) -> NamedAlgorithm:
    """"Transformed + Laplace" (Algorithm 1 / Section 5.3.1 with the identity strategy).

    For tree policies this adds Laplace noise of scale ``1/ε`` to every
    transformed coordinate; for θ-threshold policies the same runs on the
    ``H^θ_k`` spanner with budget ``ε / stretch``.
    """
    resolved = _spanner_for(policy, spanner, theta)
    mechanism = TreeTransformMechanism(
        policy=policy,
        epsilon=epsilon,
        estimator_factory=laplace_estimator_factory,
        spanner=resolved,
        consistency="none",
        transform=transform,
    )
    return NamedAlgorithm(
        name="Transformed+Laplace", mechanism=mechanism, data_dependent=False
    )


def blowfish_transformed_consistent(
    policy: PolicyGraph,
    epsilon: float,
    spanner: Optional[SpannerApproximation] = None,
    theta: Optional[int] = None,
    transform: Optional[PolicyTransform] = None,
) -> NamedAlgorithm:
    """"Transformed + ConsistentEst": Laplace on ``x_G`` plus monotone consistency."""
    resolved = _spanner_for(policy, spanner, theta)
    mechanism = TreeTransformMechanism(
        policy=policy,
        epsilon=epsilon,
        estimator_factory=laplace_estimator_factory,
        spanner=resolved,
        consistency="auto",
        transform=transform,
    )
    return NamedAlgorithm(
        name="Transformed+ConsistentEst", mechanism=mechanism, data_dependent=True
    )


def blowfish_transformed_dawa(
    policy: PolicyGraph,
    epsilon: float,
    spanner: Optional[SpannerApproximation] = None,
    theta: Optional[int] = None,
    consistency: bool = True,
    transform: Optional[PolicyTransform] = None,
) -> NamedAlgorithm:
    """"Trans + Dawa (+ Cons)": DAWA on the transformed database (Section 5.4.1)."""
    resolved = _spanner_for(policy, spanner, theta)
    mechanism = TreeTransformMechanism(
        policy=policy,
        epsilon=epsilon,
        estimator_factory=dawa_estimator_factory,
        spanner=resolved,
        consistency="auto" if consistency else "none",
        transform=transform,
    )
    name = "Trans+Dawa+Cons" if consistency else "Trans+Dawa"
    return NamedAlgorithm(name=name, mechanism=mechanism, data_dependent=True)


def blowfish_transformed_privelet_grid(
    policy: PolicyGraph, epsilon: float, transform: Optional[PolicyTransform] = None
) -> NamedAlgorithm:
    """"Transformed + Privelet" for the grid policy ``G^1_{k^d}`` (Theorem 5.4)."""
    mechanism = transformed_privelet_grid_mechanism(policy, epsilon, transform=transform)
    return NamedAlgorithm(
        name="Transformed+Privelet", mechanism=mechanism, data_dependent=False
    )


def blowfish_transformed_laplace_matrix(
    policy: PolicyGraph,
    epsilon: float,
    budget_fraction: float = 1.0,
    transform: Optional[PolicyTransform] = None,
) -> NamedAlgorithm:
    """Data-independent "Transformed + Laplace" through the matrix-mechanism route.

    Unlike :func:`blowfish_transformed_laplace` this works for *any* policy
    graph (Theorem 4.1), at the price of never exploiting data-dependent
    structure.
    """
    mechanism = transformed_laplace_mechanism(
        policy, epsilon, budget_fraction, transform=transform
    )
    return NamedAlgorithm(
        name="Transformed+Laplace(MM)", mechanism=mechanism, data_dependent=False
    )
