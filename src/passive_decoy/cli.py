"""Command-line front end.

Subcommands: distribution, keyrate, simulate, ingest, optimize, scan.

Exit codes: 0 success (for ``keyrate``: a positive rate), 2 validation
failure, 3 parse failure, 4 no key (rate is zero), 1 any other error, such
as an output path that cannot be written.  Every failure prints one
``error:`` line to stderr.

Handlers import what they run when they run: ``--help`` loads no numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .errors import (ConfigError, DegenerateSourceError, IngestError,
                     ParameterError, TruncationError, excerpt)

if TYPE_CHECKING:
    from .config import RunConfig

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_NO_KEY = 4


def _save_text(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_text(text: str, out_path: str | None) -> None:
    from .reports import replace_on_success
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with replace_on_success(out_path) as (temp,):
            _save_text(text, temp)


def _same_regular_file(first: str, second: str) -> bool:
    try:  # symlinks followed; a file still to be made counts as regular
        return os.path.samefile(first, second) and os.path.isfile(first)
    except OSError:
        return os.path.realpath(first) == os.path.realpath(second)


def _dists_from_config(config: RunConfig):
    from .statistics import branch_distributions
    num = config.numerics
    return branch_distributions(config.source, config.alice_detector,
                                num.n_max, nodes=num.theta_nodes,
                                tail_tol=num.tail_tol)


def cmd_distribution(args: argparse.Namespace) -> int:
    from .config import load_run_config
    from .reports import distribution_csv, distribution_report, dump_json
    config = load_run_config(args.config)
    dists = _dists_from_config(config)
    if args.format == "csv":
        _write_text(distribution_csv(dists), args.out)
    else:
        _write_text(dump_json(distribution_report(config, dists)), args.out)
    return EXIT_OK


def cmd_keyrate(args: argparse.Namespace) -> int:
    from .bounds import key_rate
    from .config import _load_json, load_run_config
    from .reports import dump_json, keyrate_report_payload, observed_from_payload
    config = load_run_config(args.config)
    stats = observed_from_payload(_load_json(args.stats, "stats file"))
    dists = _dists_from_config(config)
    report = key_rate(dists, stats, config.key_params)
    payload = keyrate_report_payload(report, stats, config.key_params)
    _write_text(dump_json(payload), args.out)
    return EXIT_OK if report.r_total > 0.0 else EXIT_NO_KEY


def cmd_simulate(args: argparse.Namespace) -> int:
    from .config import load_run_config
    from .reports import dump_json, replace_on_success, stats_payload
    from .simulate import simulate_to_csv
    config = load_run_config(args.config)
    if config.channel is None:
        raise ConfigError("simulate requires a channel section in the config")
    seed = args.seed if args.seed is not None else config.seed
    if seed is None:
        raise ConfigError("simulate requires a seed (flag --seed or config)")
    if seed < 0:
        raise ParameterError(f"--seed must be >= 0 (got {excerpt(seed)})")
    if args.pulses < 1:
        raise ParameterError(f"--pulses must be >= 1 (got {excerpt(args.pulses)})")
    if args.out == "-":
        raise ParameterError("--out must name a file: records are not written "
                             "to stdout")

    stats_out = None if args.stats_out in (None, "-") else args.stats_out
    if stats_out is not None and _same_regular_file(args.out, stats_out):
        raise ParameterError("--out and --stats-out name the same file "
                             f"(got {excerpt(args.out)})")
    # File outputs are written to temporary siblings, which replace the
    # targets only once both are complete: a failed run, including one with
    # no sifted pulses, writes neither (devices and FIFOs are written as
    # they go).
    with replace_on_success(args.out, stats_out) as (records_temp, stats_temp):
        tallies = simulate_to_csv(config.source, config.alice_detector,
                                  config.channel, args.pulses, seed, records_temp)
        provenance = {**tallies.provenance(args.out),
                      "seed": seed, "pulses": tallies.pulses}
        text = dump_json(stats_payload(tallies.to_observed(), provenance))
        if stats_temp is not None:
            _save_text(text, stats_temp)
    if stats_out is None:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    from .records import ingest_records
    from .reports import dump_json, stats_payload
    try:
        tallies = ingest_records(args.records)
    except ChildProcessError:  # a worker's death, not the file's
        raise
    except OSError as exc:
        raise IngestError(f"cannot read records file: {exc}") from None
    payload = stats_payload(tallies.to_observed(),
                            tallies.provenance(args.records))
    _write_text(dump_json(payload), args.out)
    return EXIT_OK


def _search_space(config: RunConfig):
    """The config's search ranges as a SearchSpace; range errors name the
    ``search.<axis>`` they come from."""
    from .optimize import AxisSpec, SearchSpace
    s = config.search
    axes = {}
    for name in ("mu1", "mu2", "t"):
        try:
            axes[name] = AxisSpec(*getattr(s, name))
        except ParameterError as exc:
            raise ParameterError(f"search.{name}: {exc}") from None
    try:
        return SearchSpace(
            **axes, channel=config.channel,
            alice_detector=config.alice_detector,
            refinement_levels=s.refinement_levels, key_params=config.key_params,
            overlap=config.source.overlap, n_max=config.numerics.n_max,
            theta_nodes=config.numerics.theta_nodes,
            tail_tol=config.numerics.tail_tol)
    except ParameterError as exc:
        raise ParameterError(f"search.{exc}") from None


def cmd_optimize(args: argparse.Namespace) -> int:
    from .config import load_run_config
    from .optimize import optimize
    from .reports import dump_json, optimization_csv, optimization_payload
    config = load_run_config(args.config)
    if config.channel is None:
        raise ConfigError("optimize requires a channel section in the config")
    if config.search is None:
        raise ConfigError("optimize requires a search section in the config")
    result = optimize(_search_space(config))
    if args.format == "json":
        _write_text(dump_json(optimization_payload(result)), args.out)
    else:
        _write_text(optimization_csv(result), args.out)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    from .config import load_run_config
    from .optimize import scan_rate_vs_distance
    from .reports import dump_json, scan_csv, scan_payload
    config = load_run_config(args.config)
    if config.channel is None:
        raise ConfigError("scan requires a channel section in the config")
    try:
        lengths = [float(part) for part in args.lengths.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"--lengths must be comma-separated numbers "
                             f"(got {excerpt(args.lengths)})") from None
    src = config.source
    rows = scan_rate_vs_distance(
        (src.mu1, src.mu2, src.t), config.alice_detector, config.channel,
        lengths, config.key_params, overlap=src.overlap,
        n_max=config.numerics.n_max, theta_nodes=config.numerics.theta_nodes,
        tail_tol=config.numerics.tail_tol)
    if args.format == "json":
        _write_text(dump_json(scan_payload(rows)), args.out)
    else:
        _write_text(scan_csv(rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passive-decoy",
        description="Passive decoy-state QKD: photon statistics, security "
                    "bounds, key rates, and pulse-level simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distribution",
                       help="branch photon-number distributions and g2")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_distribution)

    p = sub.add_parser("keyrate", help="secret key rate from observed statistics")
    p.add_argument("stats", help="observed statistics JSON file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_keyrate)

    p = sub.add_parser("simulate", help="pulse-level Monte Carlo run")
    p.add_argument("--config", required=True)
    p.add_argument("--pulses", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the config seed")
    p.add_argument("--out", required=True, help="click-record CSV path")
    p.add_argument("--stats-out", default=None,
                   help="aggregated statistics JSON path (default stdout)")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("ingest", help="aggregate a click-record CSV")
    p.add_argument("records", help="click-record CSV file")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("optimize", help="grid search for the best source point")
    p.add_argument("--config", required=True,
                   help="config with channel and search sections")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("scan", help="key rate versus fiber length")
    p.add_argument("--config", required=True)
    p.add_argument("--lengths", required=True,
                   help="comma-separated fiber lengths in km")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, TruncationError, DegenerateSourceError,
            ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
