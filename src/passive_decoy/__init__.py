"""Passive decoy-state QKD numerical engine.

Photon-number statistics of a two-laser passively switched source, the
decoy security-bound chain with its GLLP-style key rate, an analytic plus
pulse-level Monte Carlo forward model of the full link, and a deterministic
source-parameter optimizer.
"""

from .bounds import (KeyRateParams, KeyRateReport, ObservedStatistics,
                     binary_entropy, key_rate)
from .config import Numerics, RunConfig, load_run_config, run_config_from_dict
from .errors import (ConfigError, DegenerateSourceError, IngestError,
                     ParameterError, TruncationError)
from .optimize import (AxisSpec, OptimizationResult, ScanRow, SearchSpace,
                       optimize, scan_rate_vs_distance)
from .records import (IngestedStatistics, RecordBatch, TallyCounts,
                      ingest_records, write_records_csv)
from .simulate import (ChannelModel, GroundTruth, HomScan, MonteCarloResult,
                       PredictedStatistics, fit_channel_to_observed,
                       hom_coincidence_scan, monte_carlo_run,
                       predicted_statistics)
from .statistics import (BranchDistributions, PulsePairParams,
                         ThresholdDetector, branch_distributions, branch_mean,
                         g2, joint_probability_matrix)

__version__ = "0.1.0"

__all__ = [
    "AxisSpec", "BranchDistributions", "ChannelModel", "ConfigError",
    "DegenerateSourceError", "GroundTruth", "HomScan", "IngestError",
    "IngestedStatistics", "KeyRateParams", "KeyRateReport",
    "MonteCarloResult", "Numerics", "ObservedStatistics",
    "OptimizationResult", "ParameterError", "PredictedStatistics",
    "PulsePairParams", "RecordBatch", "RunConfig", "ScanRow",
    "SearchSpace", "TallyCounts", "ThresholdDetector", "TruncationError",
    "binary_entropy", "branch_distributions", "branch_mean",
    "fit_channel_to_observed", "g2", "hom_coincidence_scan",
    "ingest_records", "joint_probability_matrix", "key_rate",
    "load_run_config", "monte_carlo_run", "optimize",
    "predicted_statistics", "run_config_from_dict",
    "scan_rate_vs_distance", "write_records_csv",
]
