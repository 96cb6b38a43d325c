"""Run configuration: one JSON document per run, described by ``RunConfig``.

The dataclasses define the document: starting at ``RunConfig``, each
dataclass is a JSON object whose keys are its field names, a field without a
default is required, and the field's annotation gives the JSON type.  A
``float`` is a finite number and an ``int`` an integer (``2`` or ``2.0``);
neither takes a boolean.  An optional field (``X | None``) may be absent but
not null.  A ``tuple`` is an array of exactly that many items.  Each
dataclass's ``__post_init__`` checks ranges.  Validation errors name the
offending field as ``section.field``.
"""

from __future__ import annotations

import functools
import json
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .bounds import KeyRateParams
from .errors import ConfigError, IngestError, ParameterError
from .simulate import ChannelModel
from .statistics import (DEFAULT_N_MAX, DEFAULT_TAIL_TOL, DEFAULT_THETA_NODES,
                         MAX_THETA_NODES, PHOTON_NUMBER_CAP, PulsePairParams,
                         ThresholdDetector)


@dataclass(frozen=True, slots=True)
class Numerics:
    n_max: int = DEFAULT_N_MAX
    theta_nodes: int = DEFAULT_THETA_NODES
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        if not 2 <= self.n_max <= PHOTON_NUMBER_CAP:
            raise ParameterError(
                f"n_max must be within [2, {PHOTON_NUMBER_CAP}] (got {self.n_max})")
        if self.theta_nodes < 4:
            raise ParameterError(f"theta_nodes must be >= 4 (got {self.theta_nodes})")
        if self.theta_nodes > MAX_THETA_NODES:
            raise ParameterError(
                f"theta_nodes must be <= {MAX_THETA_NODES} (got {self.theta_nodes})")
        if not self.tail_tol > 0.0:
            raise ParameterError(f"tail_tol must be > 0 (got {self.tail_tol})")


@dataclass(frozen=True, slots=True)
class SearchSection:
    """Raw optimizer ranges; assembled into a SearchSpace with the channel."""

    mu1: tuple[float, float, int]
    mu2: tuple[float, float, int]
    t: tuple[float, float, int]
    refinement_levels: int = 2

    def __post_init__(self) -> None:
        if self.refinement_levels < 1:
            raise ParameterError(
                f"refinement_levels must be >= 1 (got {self.refinement_levels})")


@dataclass(frozen=True)
class RunConfig:
    source: PulsePairParams
    alice_detector: ThresholdDetector
    channel: ChannelModel | None = None
    key_params: KeyRateParams = field(default_factory=KeyRateParams)
    numerics: Numerics = field(default_factory=Numerics)
    seed: int | None = None
    search: SearchSection | None = None

    def __post_init__(self) -> None:
        if self.seed is not None and self.seed < 0:
            raise ParameterError(f"seed must be >= 0 (got {self.seed})")


# Resolving the string annotations is most of the cost of a load; do it once.
_type_hints = functools.cache(typing.get_type_hints)


def _from_json(path: str, tp, value):
    """Build an instance of the annotated type ``tp`` from JSON ``value``.

    ``path`` is the dotted location of ``value`` in the document ("" for the
    root) and prefixes every error message.
    """
    args = typing.get_args(tp)
    if type(None) in args:  # ``X | None``: absent means the default None
        (tp,) = (arg for arg in args if arg is not type(None))
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'configuration root'} must be a JSON object")
        prefix = f"{path}." if path else ""
        unknown = sorted(set(value) - {f.name for f in fields(tp)})
        if unknown:
            raise ConfigError(f"unknown field {prefix}{unknown[0]}")
        hints = _type_hints(tp)
        kwargs = {}
        for f in fields(tp):
            if f.name in value:
                kwargs[f.name] = _from_json(prefix + f.name, hints[f.name], value[f.name])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required field {prefix}{f.name}")
        try:
            return tp(**kwargs)
        except ParameterError as exc:
            raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise ConfigError(f"{path} must be an array of {len(args)} items "
                              f"(got {value!r})")
        return tuple(_from_json(f"{path}[{i}]", item_tp, item)
                     for i, (item_tp, item) in enumerate(zip(args, value)))
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int:
        if not is_number or (isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{path} must be an integer (got {value!r})")
        return int(value)
    if tp is float:
        # ``abs(value) <= max`` is false for nan, inf and ints beyond a float.
        if not (is_number and abs(value) <= sys.float_info.max):
            raise ConfigError(f"{path} must be a finite number (got {value!r})")
        return float(value)
    raise TypeError(f"no JSON form for {path} of type {tp!r}")


def run_config_from_dict(doc: dict) -> RunConfig:
    return _from_json("", RunConfig, doc)


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
