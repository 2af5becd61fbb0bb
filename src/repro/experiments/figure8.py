"""Runners for the paper's main evaluation (Figures 8 and 9, Section 6).

Figures 8 and 9 share the same four experiments and differ only in the privacy
budget (ε ∈ {0.01, 0.1} for Figure 8 and ε ∈ {0.001, 1} for Figure 9):

* **Hist** — the identity workload on datasets A–G under ``G^1_k``
  (panels b/f), comparing Laplace, DAWA, Transformed+Laplace,
  Transformed+ConsistentEst and Trans+Dawa+Cons;
* **1D-Range** — random range queries on datasets A–G under ``G^1_k``
  (panels c/g), comparing Privelet, DAWA and the three Blowfish variants;
* **1D-Range under G^4_k** — dataset D aggregated to domain sizes
  512–4096 (panels d/h), comparing Privelet, DAWA, Transformed+Laplace and
  Trans+Dawa through the ``H^4_k`` spanner (budget ε/3);
* **2D-Range** — random 2-D range queries on the Twitter grids under
  ``G^1_{k²}`` (panels a/e), comparing Privelet, DAWA and
  Transformed+Privelet.

The paper uses 10 000 random range queries and 5 trials; the runners default
to smaller workloads so the benchmark suite stays fast, and every knob is a
parameter.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..blowfish.algorithms import (
    NamedAlgorithm,
    blowfish_transformed_consistent,
    blowfish_transformed_dawa,
    blowfish_transformed_laplace,
    blowfish_transformed_privelet_grid,
    dp_dawa_baseline,
    dp_laplace_baseline,
    dp_privelet_baseline,
)
from ..core.database import Database
from ..core.rng import RandomState, ensure_rng
from ..core.workload import identity_workload
from ..core.range_queries import random_range_queries_workload
from ..data.catalog import ONE_DIMENSIONAL_DATASETS, TWO_DIMENSIONAL_DATASETS, load_dataset
from ..policy.builders import grid_policy, line_policy, threshold_policy
from ..policy.spanner import approximate_with_line_spanner
from .harness import ComparisonResult, run_comparison

#: Privacy budgets of Figure 8 (main text) and Figure 9 (appendix).
FIGURE8_EPSILONS = (0.01, 0.1)
FIGURE9_EPSILONS = (0.001, 1.0)


def hist_algorithms(policy, epsilon: float, domain_size: int) -> List[NamedAlgorithm]:
    """The five algorithms of the Hist panels (Figure 8b/f)."""
    return [
        dp_laplace_baseline(epsilon),
        dp_dawa_baseline(epsilon, (domain_size,)),
        blowfish_transformed_laplace(policy, epsilon),
        blowfish_transformed_consistent(policy, epsilon),
        blowfish_transformed_dawa(policy, epsilon, consistency=True),
    ]


def range1d_algorithms(policy, epsilon: float, domain_size: int) -> List[NamedAlgorithm]:
    """The five algorithms of the 1D-Range panels (Figure 8c/g)."""
    return [
        dp_privelet_baseline(epsilon, (domain_size,)),
        dp_dawa_baseline(epsilon, (domain_size,)),
        blowfish_transformed_laplace(policy, epsilon),
        blowfish_transformed_consistent(policy, epsilon),
        blowfish_transformed_dawa(policy, epsilon, consistency=True),
    ]


def range1d_theta_algorithms(
    policy, epsilon: float, domain_size: int, theta: int
) -> List[NamedAlgorithm]:
    """The four algorithms of the G^θ_k panels (Figure 8d/h)."""
    spanner = approximate_with_line_spanner(policy, theta)
    return [
        dp_privelet_baseline(epsilon, (domain_size,)),
        dp_dawa_baseline(epsilon, (domain_size,)),
        blowfish_transformed_laplace(policy, epsilon, spanner=spanner),
        blowfish_transformed_dawa(policy, epsilon, spanner=spanner, consistency=False),
    ]


def range2d_algorithms(policy, epsilon: float, shape) -> List[NamedAlgorithm]:
    """The three algorithms of the 2D-Range panels (Figure 8a/e)."""
    return [
        dp_privelet_baseline(epsilon, shape),
        dp_dawa_baseline(epsilon, shape),
        blowfish_transformed_privelet_grid(policy, epsilon),
    ]


# ---------------------------------------------------------------------------
# Experiment runners.
# ---------------------------------------------------------------------------
def run_hist_experiment(
    epsilon: float,
    datasets: Sequence[str] = ONE_DIMENSIONAL_DATASETS,
    trials: int = 3,
    domain_size: Optional[int] = None,
    random_state: RandomState = 0,
) -> List[ComparisonResult]:
    """Hist workload under ``G^1_k`` on the 1-D datasets (Figure 8b/f, 9b/f)."""
    rng = ensure_rng(random_state)
    results: List[ComparisonResult] = []
    for name in datasets:
        database = load_dataset(name, random_state=rng, domain_size=domain_size)
        policy = line_policy(database.domain)
        workload = identity_workload(database.domain)
        algorithms = hist_algorithms(policy, epsilon, database.domain.size)
        results.extend(
            run_comparison(
                algorithms,
                workload,
                database,
                epsilon=epsilon,
                trials=trials,
                random_state=rng,
                workload_label="Hist",
                extra={"policy": policy.name},
            )
        )
    return results


def run_range1d_experiment(
    epsilon: float,
    datasets: Sequence[str] = ONE_DIMENSIONAL_DATASETS,
    num_queries: int = 1000,
    trials: int = 3,
    domain_size: Optional[int] = None,
    random_state: RandomState = 0,
) -> List[ComparisonResult]:
    """1D-Range workload under ``G^1_k`` on the 1-D datasets (Figure 8c/g, 9c/g)."""
    rng = ensure_rng(random_state)
    results: List[ComparisonResult] = []
    for name in datasets:
        database = load_dataset(name, random_state=rng, domain_size=domain_size)
        policy = line_policy(database.domain)
        workload = random_range_queries_workload(database.domain, num_queries, rng)
        algorithms = range1d_algorithms(policy, epsilon, database.domain.size)
        results.extend(
            run_comparison(
                algorithms,
                workload,
                database,
                epsilon=epsilon,
                trials=trials,
                random_state=rng,
                workload_label="1D-Range",
                extra={"policy": policy.name},
            )
        )
    return results


def run_range1d_theta_experiment(
    epsilon: float,
    theta: int = 4,
    dataset: str = "D",
    domain_sizes: Sequence[int] = (512, 1024, 2048, 4096),
    num_queries: int = 1000,
    trials: int = 3,
    random_state: RandomState = 0,
) -> List[ComparisonResult]:
    """1D-Range under ``G^θ_k`` for varying domain sizes (Figure 8d/h, 9d/h)."""
    rng = ensure_rng(random_state)
    results: List[ComparisonResult] = []
    for size in domain_sizes:
        database = load_dataset(dataset, random_state=rng, domain_size=size)
        database = database.rename(str(size))
        policy = threshold_policy(database.domain, theta)
        workload = random_range_queries_workload(database.domain, num_queries, rng)
        algorithms = range1d_theta_algorithms(policy, epsilon, size, theta)
        results.extend(
            run_comparison(
                algorithms,
                workload,
                database,
                epsilon=epsilon,
                trials=trials,
                random_state=rng,
                workload_label="1D-Range",
                extra={"policy": policy.name, "domain_size": size},
            )
        )
    return results


def run_range2d_experiment(
    epsilon: float,
    datasets: Sequence[str] = TWO_DIMENSIONAL_DATASETS,
    num_queries: int = 500,
    trials: int = 3,
    random_state: RandomState = 0,
) -> List[ComparisonResult]:
    """2D-Range workload under ``G^1_{k²}`` on the Twitter grids (Figure 8a/e, 9a/e)."""
    rng = ensure_rng(random_state)
    results: List[ComparisonResult] = []
    for name in datasets:
        database = load_dataset(name, random_state=rng)
        policy = grid_policy(database.domain)
        workload = random_range_queries_workload(database.domain, num_queries, rng)
        algorithms = range2d_algorithms(policy, epsilon, database.domain.shape)
        results.extend(
            run_comparison(
                algorithms,
                workload,
                database,
                epsilon=epsilon,
                trials=trials,
                random_state=rng,
                workload_label="2D-Range",
                extra={"policy": policy.name},
            )
        )
    return results

