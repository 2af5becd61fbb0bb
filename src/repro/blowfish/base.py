"""Base interface for Blowfish-private mechanisms.

A Blowfish mechanism answers a workload over the *original* domain while
guaranteeing ``(ε, G)``-Blowfish privacy (Definition 3.3) for its policy graph
``G``.  The concrete mechanisms in this package obtain the guarantee through
one of the paper's three routes:

* the policy-specific sensitivity / matrix-mechanism route (Theorem 4.1),
* the exact tree transform (Theorem 4.3), or
* a spanning-tree approximation with a reduced budget (Lemma 4.5).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from ..core.database import Database
from ..core.rng import RandomState
from ..core.workload import Workload, answer_workloads_batched
from ..exceptions import PolicyError
from ..mechanisms.base import NoiseModel, check_epsilon
from ..policy.graph import PolicyGraph
from ..policy.transform import PolicyTransform


class BlowfishMechanism(abc.ABC):
    """Base class for ``(ε, G)``-Blowfish private workload-answering mechanisms.

    Parameters
    ----------
    policy:
        The Blowfish policy graph ``G``.
    epsilon:
        The privacy budget of the *Blowfish* guarantee.  Mechanisms that go
        through a spanner internally divide this by the spanner's stretch
        (Corollary 4.6); the value stored here is always the guarantee the
        caller receives.
    transform:
        Optional precomputed :class:`PolicyTransform` for ``policy``.  The
        transform is deterministic, so sharing one instance across mechanisms
        (as the plan cache of :mod:`repro.engine` does) skips re-deriving
        ``P_G`` and re-factorising its Gram matrix on every construction.
    """

    #: Whether the mechanism's noise depends on the data (Section 5.4).
    data_dependent: bool = False
    #: Human-readable mechanism name used by the experiment harness.
    name: str = "BlowfishMechanism"

    def __init__(
        self,
        policy: PolicyGraph,
        epsilon: float,
        transform: Optional[PolicyTransform] = None,
    ) -> None:
        self._policy = policy
        self._epsilon = check_epsilon(epsilon)
        if transform is not None and transform.policy != policy:
            raise PolicyError(
                "The provided PolicyTransform was built for a different policy"
            )
        self._transform = transform if transform is not None else PolicyTransform(policy)

    # ------------------------------------------------------------- properties
    @property
    def policy(self) -> PolicyGraph:
        """The policy graph the privacy guarantee refers to."""
        return self._policy

    @property
    def epsilon(self) -> float:
        """Blowfish privacy budget ``ε``."""
        return self._epsilon

    @property
    def transform(self) -> PolicyTransform:
        """The policy transform ``P_G`` shared by repeated calls."""
        return self._transform

    # ------------------------------------------------------------------ API
    def answer(
        self,
        workload: Workload,
        database: Database,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """``(ε, G)``-Blowfish private answers to ``workload`` on ``database``."""
        self._check_instance(workload, database)
        return self._answer(workload, database, random_state)

    @abc.abstractmethod
    def _answer(
        self,
        workload: Workload,
        database: Database,
        random_state: RandomState,
    ) -> np.ndarray:
        """Mechanism-specific implementation (inputs already validated)."""

    def answer_batch(
        self,
        workloads: Sequence[Workload],
        database: Database,
        random_state: RandomState = None,
    ) -> List[np.ndarray]:
        """Answer several workloads with ONE ``(ε, G)``-Blowfish invocation.

        The workloads are stacked and answered by a single call to
        :meth:`answer`, so the whole batch consumes one ε.  Returns one answer
        vector per input workload, in order.
        """
        return answer_workloads_batched(self.answer, workloads, database, random_state)

    def noise_model(self, workload: Workload) -> Optional[NoiseModel]:
        """The noise profile one invocation on ``workload`` would carry.

        Same contract as :meth:`repro.mechanisms.base.Mechanism.noise_model`:
        ``None`` when the mechanism cannot state its noise honestly ahead of
        the draw; data-independent subclasses return the per-row standard
        deviations (and factor basis) their strategy implies.
        """
        return None

    # ----------------------------------------------------------------- helper
    def _check_instance(self, workload: Workload, database: Database) -> None:
        if workload.domain != self._policy.domain:
            raise PolicyError(
                f"Workload domain {workload.domain} does not match the policy domain "
                f"{self._policy.domain}"
            )
        if database.domain != self._policy.domain:
            raise PolicyError(
                f"Database domain {database.domain} does not match the policy domain "
                f"{self._policy.domain}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(policy={self._policy.name or self._policy!r}, "
            f"epsilon={self._epsilon})"
        )
