"""Experiment runners that regenerate every table and figure of the paper."""

from .ablations import (
    ablate_consistency,
    ablate_dawa_budget_split,
    ablate_grid_strategy,
    ablate_spanner_stretch,
)
from .figure3 import empirical_scaling_1d, empirical_scaling_2d, figure3_rows
from .figure8 import (
    FIGURE8_EPSILONS,
    FIGURE9_EPSILONS,
    hist_algorithms,
    range1d_algorithms,
    range1d_theta_algorithms,
    range2d_algorithms,
    run_hist_experiment,
    run_range1d_experiment,
    run_range1d_theta_experiment,
    run_range2d_experiment,
)
from .figure10 import (
    figure10_rows,
    qualitative_findings_1d,
    qualitative_findings_2d,
    run_figure10a,
    run_figure10b,
)
from .harness import ComparisonResult, mean_error_of, results_by_algorithm, run_comparison
from .reporting import format_table, pivot_results, render_results
from .table1 import table1_fidelity, table1_rows

__all__ = [
    "ComparisonResult",
    "FIGURE8_EPSILONS",
    "FIGURE9_EPSILONS",
    "ablate_consistency",
    "ablate_dawa_budget_split",
    "ablate_grid_strategy",
    "ablate_spanner_stretch",
    "empirical_scaling_1d",
    "empirical_scaling_2d",
    "figure10_rows",
    "figure3_rows",
    "format_table",
    "hist_algorithms",
    "mean_error_of",
    "pivot_results",
    "qualitative_findings_1d",
    "qualitative_findings_2d",
    "range1d_algorithms",
    "range1d_theta_algorithms",
    "range2d_algorithms",
    "render_results",
    "results_by_algorithm",
    "run_comparison",
    "run_figure10a",
    "run_figure10b",
    "run_hist_experiment",
    "run_range1d_experiment",
    "run_range1d_theta_experiment",
    "run_range2d_experiment",
    "table1_fidelity",
    "table1_rows",
]
