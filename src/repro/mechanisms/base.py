"""Mechanism interfaces.

Two kinds of differentially private mechanisms appear in the paper:

* *workload mechanisms* answer a workload ``W`` on a database ``x`` directly
  (Laplace on the workload, matrix mechanisms, Privelet, the hierarchical
  mechanism);
* *histogram estimators* release a private estimate of the full histogram
  ``x̃`` from which any workload can be answered as ``W x̃`` (Laplace on the
  identity, DAWA).

Every mechanism here also exposes a *matrix-level* entry point
(:meth:`Mechanism.answer_matrix`) that operates on a raw matrix/vector pair.
The Blowfish machinery relies on it: transformed instances ``(W_G, x_G)``
live in the edge domain, which is not a :class:`~repro.core.domain.Domain`,
yet the same differentially private code must run on them (Theorems 4.1 and
4.3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..core.database import Database
from ..core.rng import RandomState, ensure_rng
from ..core.workload import (
    Workload,
    answer_workloads_batched,
    answer_workloads_batched_with_noise,
)
from ..exceptions import MechanismError, PrivacyBudgetError

MatrixLike = Union[np.ndarray, sp.spmatrix]


@dataclass(frozen=True)
class NoiseModel:
    """The noise one mechanism invocation adds, described honestly.

    A mechanism invocation releases ``y = true_answers + noise``.  This
    metadata rides alongside the answers (see
    :meth:`Mechanism.answer_batch_with_noise`) so downstream inference —
    the serving engine's generalised-least-squares consolidation — can weight
    and correlate measurements by what the strategy actually drew, instead of
    the crude ε-implied proxy (``2/ε²``).

    Attributes
    ----------
    stds:
        Per-row standard deviation of the additive noise, one entry per row
        of the invocation's (stacked) workload.
    basis:
        Optional sparse factor matrix ``R`` (rows × factors) such that the
        invocation's noise vector is ``R η`` for i.i.d. *unit-variance*
        factors ``η`` — so ``Cov = R Rᵀ`` and ``stds`` equals the row norms
        of ``R``.  Present for linear-noise (data-independent) mechanisms;
        ``None`` when only the marginal scales are known (data-dependent
        estimators), in which case rows are modelled as uncorrelated at
        their stated standard deviations.

    The model pickles (plain arrays and a CSR matrix), so it survives the
    engine's process-pool work-unit round trip untouched.
    """

    stds: np.ndarray
    basis: Optional[sp.csr_matrix] = None

    def __post_init__(self) -> None:
        stds = np.asarray(self.stds, dtype=np.float64).ravel()
        if stds.size and (not np.all(np.isfinite(stds)) or np.any(stds < 0)):
            raise MechanismError("Noise stds must be finite and non-negative")
        object.__setattr__(self, "stds", stds)
        if self.basis is not None:
            basis = sp.csr_matrix(self.basis)
            if basis.shape[0] != stds.shape[0]:
                raise MechanismError(
                    f"Noise basis has {basis.shape[0]} rows but {stds.shape[0]} "
                    "per-row stds were given"
                )
            object.__setattr__(self, "basis", basis)

    @property
    def num_rows(self) -> int:
        """Number of invocation rows the model covers."""
        return int(self.stds.shape[0])

    def rows(self, selector: Union[slice, np.ndarray]) -> "NoiseModel":
        """The sub-model covering one slice of the invocation's rows.

        The factor dimension is preserved: two slices of one invocation keep
        referring to the *same* factors, which is exactly what lets the
        answer cache compute cross-entry covariance for batch-mates.
        """
        return NoiseModel(
            stds=self.stds[selector],
            basis=self.basis[selector] if self.basis is not None else None,
        )


def basis_noise_model(basis: sp.spmatrix) -> NoiseModel:
    """Build a :class:`NoiseModel` from a unit-variance factor basis ``R``.

    Per-row stds are derived as the row norms of ``R`` (``Cov = R Rᵀ``).
    """
    basis = sp.csr_matrix(basis)
    squared = np.asarray(basis.multiply(basis).sum(axis=1)).ravel()
    return NoiseModel(stds=np.sqrt(squared), basis=basis)


def check_epsilon(epsilon: float) -> float:
    """Validate a privacy budget and return it as a float."""
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise PrivacyBudgetError(f"epsilon must be a positive finite number, got {epsilon}")
    return epsilon


class Mechanism(abc.ABC):
    """Base class for differentially private workload-answering mechanisms.

    Parameters
    ----------
    epsilon:
        The privacy budget the mechanism consumes.

    Notes
    -----
    Subclasses set the class attribute :attr:`data_dependent` to ``True`` when
    the distribution of the added noise depends on the input database
    (Section 2, "Sensitivity and Private Mechanisms").  Data-independent
    mechanisms are exactly the ones covered by the matrix-mechanism
    equivalence (Theorem 4.1); data-dependent ones additionally require a tree
    policy (Theorem 4.3).

    **Re-entrancy contract.**  The serving engine (:mod:`repro.engine`) caches
    constructed mechanisms inside plans and calls :meth:`answer` /
    :meth:`answer_batch` from concurrent flush threads.  Implementations must
    therefore be re-entrant: per-call state stays on the stack, and any
    instance-level memo (lazy factorisations, per-workload transforms) must be
    guarded — use :class:`WorkloadTransformCache` for the latter.  The noise
    generator is always passed in per call, never stored.

    **Serialisability contract.**  Cached plans also travel — to worker
    processes (the engine's ``execute_backend="process"``) and to disk (plan
    persistence) — so mechanisms must pickle: keep unpicklable lazies
    (locks, factorisation closures) out of the pickled state and re-derive
    them deterministically on first use, the way
    :class:`WorkloadTransformCache` and
    :class:`~repro.policy.transform.PolicyTransform` do.  A round-tripped
    mechanism must answer identically for an identical seed.
    """

    #: Whether the added noise depends on the input database.
    data_dependent: bool = False
    #: Human-readable mechanism name used by the experiment harness.
    name: str = "Mechanism"

    def __init__(self, epsilon: float) -> None:
        self._epsilon = check_epsilon(epsilon)

    @property
    def epsilon(self) -> float:
        """Privacy budget ``ε``."""
        return self._epsilon

    # ------------------------------------------------------------------ API
    def answer(
        self,
        workload: Workload,
        database: Database,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Noisy answers to ``workload`` on ``database``.

        The default implementation forwards to :meth:`answer_matrix`.
        """
        if workload.domain != database.domain:
            raise ValueError(
                f"Workload domain {workload.domain} does not match database domain "
                f"{database.domain}"
            )
        return self.answer_matrix(workload.matrix, database.counts, random_state)

    @abc.abstractmethod
    def answer_matrix(
        self,
        matrix: MatrixLike,
        vector: np.ndarray,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Noisy answers for a raw ``matrix @ vector`` product.

        Implementations must guarantee ε-differential privacy with respect to
        *unbounded* neighbors of ``vector`` (vectors at L1 distance 1), unless
        their docstring states otherwise.
        """

    def answer_batch(
        self,
        workloads: Sequence[Workload],
        database: Database,
        random_state: RandomState = None,
    ) -> List[np.ndarray]:
        """Answer several workloads with ONE mechanism invocation.

        The workloads are stacked into a single matrix and answered by a
        single call to :meth:`answer`, so the whole batch costs one ε — the
        batch-executor fast path of :mod:`repro.engine`.  Returns one answer
        vector per input workload, in order.
        """
        return answer_workloads_batched(self.answer, workloads, database, random_state)

    def noise_model(self, workload: Workload) -> Optional[NoiseModel]:
        """The noise profile one invocation on ``workload`` would carry.

        Returns ``None`` when the mechanism cannot state its noise honestly
        ahead of the draw (data-dependent estimators); consumers then fall
        back to the ε-implied ``2/ε²`` proxy.  Data-independent
        subclasses override this with the per-row standard deviations (and,
        where the noise is linear, the factor basis) their strategy implies.
        """
        return None

    def answer_batch_with_noise(
        self,
        workloads: Sequence[Workload],
        database: Database,
        random_state: RandomState = None,
    ) -> Tuple[List[np.ndarray], Optional[NoiseModel]]:
        """:meth:`answer_batch` plus the invocation's noise metadata.

        The answers are drawn exactly as :meth:`answer_batch` would draw
        them (one stacked invocation, same stream), and the returned
        :class:`NoiseModel` covers the stacked rows in input order.  The
        metadata is advisory: a failure computing it degrades to ``None``
        (the proxy model) rather than voiding the already-drawn release.
        """
        return answer_workloads_batched_with_noise(
            self.answer, self.noise_model, workloads, database, random_state
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(epsilon={self._epsilon})"


class HistogramMechanism(Mechanism):
    """A mechanism that privately estimates the data vector itself.

    Subclasses implement :meth:`estimate_vector`; workload answers are then
    computed as ``W x̃`` (post-processing, no extra budget).
    """

    @abc.abstractmethod
    def estimate_vector(
        self, vector: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Return an ε-differentially private estimate of ``vector``."""

    def noise_std_per_cell(self, num_cells: int) -> Optional[np.ndarray]:
        """Per-cell standard deviation of the estimator's additive noise.

        ``None`` (the default) marks estimators whose noise cannot be stated
        ahead of the draw — data-dependent ones like DAWA, whose scales
        depend on the private partition it chooses.  Data-independent
        estimators override this so workload answers ``W x̃`` can carry an
        exact linear noise model (``noise = W · cell-noise``).
        """
        return None

    def noise_model(self, workload: Workload) -> Optional[NoiseModel]:
        """Noise model of ``W x̃``: the workload applied to the cell noise."""
        cell_stds = self.noise_std_per_cell(workload.num_columns)
        if cell_stds is None:
            return None
        return basis_noise_model(workload.matrix @ sp.diags(cell_stds))

    def estimate_histogram(
        self, database: Database, random_state: RandomState = None
    ) -> np.ndarray:
        """Private estimate of the database's histogram vector."""
        return self.estimate_vector(database.counts, random_state)

    def answer_matrix(
        self,
        matrix: MatrixLike,
        vector: np.ndarray,
        random_state: RandomState = None,
    ) -> np.ndarray:
        estimate = self.estimate_vector(np.asarray(vector, dtype=np.float64), random_state)
        if sp.issparse(matrix):
            return np.asarray(matrix @ estimate).ravel()
        return np.asarray(np.asarray(matrix, dtype=np.float64) @ estimate).ravel()


def laplace_noise(
    scale: float, size: int, random_state: RandomState = None
) -> np.ndarray:
    """Sample ``size`` i.i.d. Laplace(0, scale) random variables.

    ``scale`` is the usual ``b`` parameter (standard deviation ``sqrt(2) b``);
    a zero scale returns zeros so that "infinite ε" corner cases degrade
    gracefully in tests.
    """
    if scale < 0:
        raise PrivacyBudgetError(f"Noise scale must be non-negative, got {scale}")
    rng = ensure_rng(random_state)
    if scale == 0:
        return np.zeros(size, dtype=np.float64)
    return rng.laplace(loc=0.0, scale=scale, size=size)
