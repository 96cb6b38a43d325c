"""Passive decoy-state QKD numerical engine.

Photon-number statistics of a two-laser passively switched source, the
decoy security-bound chain with its GLLP-style key rate, an analytic plus
pulse-level Monte Carlo forward model of the full link, and a deterministic
source-parameter optimizer.

``import passive_decoy`` loads none of them: a public name imports its module
when it is first looked up.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": "KeyRateParams KeyRateReport ObservedStatistics binary_entropy key_rate",
    "channel": "ChannelModel fit_channel_to_observed predicted_statistics",
    "config": "Numerics RunConfig load_run_config run_config_from_dict",
    "errors": "ConfigError DegenerateSourceError IngestError ParameterError TruncationError",
    "optimize": "AxisSpec OptimizationResult ScanRow SearchSpace optimize "
                "scan_rate_vs_distance",
    "records": "RecordBatch TallyCounts ingest_records write_records_csv",
    "simulate": "HomScan hom_coincidence_scan monte_carlo_run",
    "statistics": "BranchDistributions PulsePairParams ThresholdDetector "
                  "branch_distributions branch_mean g2",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    # Drops the binding of the submodule ``optimize`` over the function.
    optimize = property(lambda self: __getattr__("optimize"), lambda self, value: None)


sys.modules[__name__].__class__ = _Package
