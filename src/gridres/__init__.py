"""Outage lifecycle modeling.

Failure arrivals as a nonhomogeneous Poisson process, restoration durations
as failure-time-conditioned Weibull mixtures, the induced recovery process
and expected-outage curves, Monte Carlo simulation, estimation and
goodness-of-fit, and resilience-threshold analysis.
"""

from .estimate import (
    PearsonTestResult,
    Reconstruction,
    estimate_rate,
    format_triple,
    pearson_nhpp_test,
    qq_points,
    reconstruct,
    reject_decision,
)
from .fitting import FitResult, fit_duration_model, fit_weibull_mixture
from .ingest import (
    OutageDataset,
    ParseIssue,
    Provenance,
    RawRecords,
    filter_window,
    group_dependent,
    ingest_pipeline,
    parse_records,
    to_dataset,
)
from .rates import RateFunction, failure_time_pdf
from .recovery import (
    SurgeSpec,
    day_to_day_expected,
    day_to_day_recovery_rate,
    expected_failed,
    expected_in_failure,
    expected_recovered,
    recovery_rate,
    recovery_rate_curve,
    surge_expected,
    surge_recovery_rate,
)
from .resilience import (
    ResilienceCurve,
    ThresholdPick,
    infant_aging_split,
    interval_weights,
    pick_threshold,
    resilience_at,
    resilience_curve,
)
from .simulate import (
    MonteCarloRates,
    mean_paths,
    monte_carlo_recovery_rate,
    replica_rng,
    simulate_events,
)
from .weibull import DurationModel, WeibullMixture

__version__ = "0.1.0"

__all__ = [
    "DurationModel",
    "FitResult",
    "MonteCarloRates",
    "OutageDataset",
    "ParseIssue",
    "PearsonTestResult",
    "Provenance",
    "RateFunction",
    "RawRecords",
    "Reconstruction",
    "ResilienceCurve",
    "SurgeSpec",
    "ThresholdPick",
    "WeibullMixture",
    "day_to_day_expected",
    "day_to_day_recovery_rate",
    "estimate_rate",
    "expected_failed",
    "expected_in_failure",
    "expected_recovered",
    "failure_time_pdf",
    "filter_window",
    "fit_duration_model",
    "fit_weibull_mixture",
    "format_triple",
    "group_dependent",
    "infant_aging_split",
    "ingest_pipeline",
    "interval_weights",
    "mean_paths",
    "monte_carlo_recovery_rate",
    "parse_records",
    "pearson_nhpp_test",
    "pick_threshold",
    "qq_points",
    "reconstruct",
    "recovery_rate",
    "recovery_rate_curve",
    "reject_decision",
    "replica_rng",
    "resilience_at",
    "resilience_curve",
    "simulate_events",
    "surge_expected",
    "surge_recovery_rate",
    "to_dataset",
]
