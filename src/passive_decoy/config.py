"""Run configuration: one JSON document per run.

Sections: ``source`` (pulse pair), ``alice_detector`` (monitor detector),
optional ``channel`` (link model for simulation/prediction), ``key_params``,
``numerics`` (truncation and quadrature controls), optional ``seed`` and an
optional ``search`` section for the optimizer.  Validation errors name the
offending field as ``section.field``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .bounds import KeyRateParams
from .errors import ConfigError, IngestError, ParameterError
from .simulate import ChannelModel
from .statistics import (DEFAULT_N_MAX, DEFAULT_TAIL_TOL, DEFAULT_THETA_NODES,
                         PHOTON_NUMBER_CAP, PulsePairParams, ThresholdDetector)


def _is_int(value) -> bool:
    """True for a JSON integer; JSON booleans load as ``bool``, an ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Numerics:
    n_max: int = DEFAULT_N_MAX
    theta_nodes: int = DEFAULT_THETA_NODES
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        for name, value in (("n_max", self.n_max), ("theta_nodes", self.theta_nodes)):
            if not _is_int(value):
                raise ParameterError(f"{name} must be an integer (got {value!r})")
        if not 2 <= self.n_max <= PHOTON_NUMBER_CAP:
            raise ParameterError(
                f"n_max must be within [2, {PHOTON_NUMBER_CAP}] (got {self.n_max})")
        if self.theta_nodes < 4:
            raise ParameterError(f"theta_nodes must be >= 4 (got {self.theta_nodes})")
        if not self.tail_tol > 0.0:
            raise ParameterError(f"tail_tol must be > 0 (got {self.tail_tol})")


@dataclass(frozen=True, slots=True)
class SearchSection:
    """Raw optimizer ranges; assembled into a SearchSpace with the channel."""

    mu1: tuple[float, float, int]
    mu2: tuple[float, float, int]
    t: tuple[float, float, int]
    refinement_levels: int = 2


@dataclass(frozen=True)
class RunConfig:
    source: PulsePairParams
    alice_detector: ThresholdDetector
    channel: ChannelModel | None = None
    key_params: KeyRateParams = field(default_factory=KeyRateParams)
    numerics: Numerics = field(default_factory=Numerics)
    seed: int | None = None
    search: SearchSection | None = None


def _section(doc: dict, name: str, required: bool) -> dict | None:
    if name not in doc:
        if required:
            raise ConfigError(f"missing required section {name!r}")
        return None
    value = doc[name]
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return value


def _build(section: str, cls, data: dict, allowed: set[str], **extra):
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown field {section}.{sorted(unknown)[0]}")
    try:
        return cls(**data, **extra)
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from None
    except ParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _axis(section: str, name: str, value) -> tuple[float, float, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 3):
        raise ConfigError(f"{section}.{name} must be [lo, hi, points]")
    lo, hi, points = value
    if not all(_is_int(v) or isinstance(v, float) for v in (lo, hi)):
        raise ConfigError(f"{section}.{name}: lo and hi must be numbers "
                          f"(got {lo!r}, {hi!r})")
    if not _is_int(points):
        raise ConfigError(f"{section}.{name}: points must be an integer")
    return (float(lo), float(hi), points)


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    known = {"source", "alice_detector", "channel", "key_params", "numerics",
             "seed", "search"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown section {sorted(unknown)[0]!r}")

    source = _build("source", PulsePairParams, _section(doc, "source", True),
                    {"mu1", "mu2", "t", "overlap"})
    alice = _build("alice_detector", ThresholdDetector,
                   _section(doc, "alice_detector", True), {"epsilon", "eta_d"})

    channel = None
    ch_data = _section(doc, "channel", False)
    if ch_data is not None:
        ch_data = dict(ch_data)
        bob_raw = ch_data.pop("bob_detector", None)
        if bob_raw is None:
            raise ConfigError("missing required field channel.bob_detector")
        if not isinstance(bob_raw, dict):
            raise ConfigError("channel.bob_detector must be an object")
        bob = _build("channel.bob_detector", ThresholdDetector, bob_raw,
                     {"epsilon", "eta_d"})
        channel = _build("channel", ChannelModel, ch_data,
                         {"fiber_length_km", "misalignment",
                          "alice_internal_loss_db", "fiber_loss_db_per_km"},
                         bob_detector=bob)

    kp_data = _section(doc, "key_params", False)
    key_params = (KeyRateParams() if kp_data is None else
                  _build("key_params", KeyRateParams, kp_data, {"q", "f", "e0"}))

    num_data = _section(doc, "numerics", False)
    numerics = (Numerics() if num_data is None else
                _build("numerics", Numerics, num_data,
                       {"n_max", "theta_nodes", "tail_tol"}))

    seed = doc.get("seed")
    if seed is not None and not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer (got {seed!r})")

    search = None
    s_data = _section(doc, "search", False)
    if s_data is not None:
        unknown = set(s_data) - {"mu1", "mu2", "t", "refinement_levels"}
        if unknown:
            raise ConfigError(f"unknown field search.{sorted(unknown)[0]}")
        for axis_name in ("mu1", "mu2", "t"):
            if axis_name not in s_data:
                raise ConfigError(f"missing required field search.{axis_name}")
        levels = s_data.get("refinement_levels", 2)
        if not _is_int(levels) or levels < 1:
            raise ConfigError("search.refinement_levels must be a positive integer")
        search = SearchSection(
            mu1=_axis("search", "mu1", s_data["mu1"]),
            mu2=_axis("search", "mu2", s_data["mu2"]),
            t=_axis("search", "t", s_data["t"]),
            refinement_levels=levels)

    return RunConfig(source=source, alice_detector=alice, channel=channel,
                     key_params=key_params, numerics=numerics, seed=seed,
                     search=search)


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a configuration file.

    Raises:
        IngestError: if the file is missing or not valid JSON.
        ConfigError: if the document violates a field constraint.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IngestError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"config {path} is not valid JSON: {exc}") from None
    return run_config_from_dict(doc)
