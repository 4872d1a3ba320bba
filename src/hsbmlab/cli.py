"""Command-line interface.

Subcommands: generate, classify, recover, bench-spectral, montecarlo,
table1.  Configurations come either from a JSON file (--config, schema
{"n": int, "q": float, "gamma": float, "clusters": [[size, p], ...]}) or
from a preset (--example ID --n N, constants via repeated
--constant NAME=VALUE).

Exit codes: 0 on success, 2 for infeasible configurations, input files
that cannot be read or parsed, --out files that cannot be written, or
failed recovery, 3 when the convex solver does not converge.
"""

from __future__ import annotations

import argparse
import json
import sys

from .convex import MAX_ITER, check_max_iter
from .exhaustive import RESTARTS
from .graphio import csv_text, json_text, read_graph, table_text, write_graph, write_text
from .harness import (
    ALGORITHMS,
    TABLE_COLUMNS,
    ExperimentSpec,
    concentration_experiment,
    draw_graph,
    recover,
    run_monte_carlo,
    run_table1,
    write_results,
)
from .model import INTEGER, ConfigError, ModelConfig, check_keys, json_value
from .presets import EXAMPLE_IDS, example_config
from .regimes import DEFAULT_C, DEFAULT_ETA, classify, csv_cells

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NONCONVERGENCE = 3
# recover's exit code for each harness failure kind; a tie still prints
# the first maximizer.
EXIT_CODES = {
    "none": EXIT_OK,
    "tie": EXIT_OK,
    "rounding": EXIT_INFEASIBLE,
    "counting": EXIT_INFEASIBLE,
    "nonconvergence": EXIT_NONCONVERGENCE,
}


def _parse_constant(text: str) -> tuple[str, float]:
    name, _, value = text.partition("=")
    if not _ or not name:
        raise argparse.ArgumentTypeError(
            f"constants are NAME=VALUE, got {text!r}"
        )
    return name, float(value)


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add the named flags, each read by several subcommands, in usage order."""
    def add(flag, **kwargs):
        if flag in flags:
            parser.add_argument(flag, **kwargs)
    add("--seed", type=int, default=0, help="base random seed")
    add("--constant-C", type=float, default=DEFAULT_C, dest="constant_c",
        help="proportionality constant for the scaled conditions")
    add("--eta", type=float, default=DEFAULT_ETA,
        help="exponent margin of the search-recovery condition")
    add("--gamma", type=float, default=None, help="override the observation rate")
    add("--out", type=str, default=None, help="output file path")
    add("--format", choices=("csv", "json"), default="csv", help="output file format")
    add("--config", type=str, default=None, help="JSON model configuration file")
    add("--example", type=int, default=None, choices=EXAMPLE_IDS,
        help="preset family id")
    add("--n", type=int, default=None, help="number of nodes for --example")
    add("--constant", action="append", default=[], type=_parse_constant,
        metavar="NAME=VALUE", help="preset constant override (repeatable)")


CONFIG_SOURCE = ("--gamma", "--config", "--example", "--n", "--constant")


def _on_file(flag: str, path: str, use):
    """use(path) for the file a flag names; a file that cannot be opened,
    written, decoded or parsed is a ConfigError naming the flag and path.
    A ConfigError that use raises itself passes through unchanged."""
    try:
        return use(path)
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # malformed JSON, bad encoding, GraphFormatError
        raise ConfigError(f"{flag} {path}: {exc}") from exc


def _json_object(path: str) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
    return raw


def _config_from_args(args) -> ModelConfig:
    if (args.config is None) == (args.example is None):
        raise ConfigError("exactly one of --config or --example is required")
    if args.config is not None:
        config = ModelConfig.from_dict(_on_file("--config", args.config, _json_object))
    else:
        if args.n is None:
            raise ConfigError("--example requires --n")
        config = example_config(args.example, args.n, dict(args.constant))
    return _with_gamma(config, args.gamma)


def _with_gamma(config: ModelConfig, gamma: float | None) -> ModelConfig:
    """Apply the --gamma override, if given."""
    if gamma is None:
        return config
    return ModelConfig.from_runs(config.n, *config.runs, config.q, gamma)


def _write_or_print(text: str, out: str | None) -> None:
    """Write text, as it is, to the --out file or else to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        _on_file("--out", out, lambda path: write_text(path, text))


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    if args.out is None:
        raise ConfigError("generate requires --out")
    graph = draw_graph(config, config.planted_partition(), args.seed)
    _on_file("--out", args.out, lambda path: write_graph(path, graph))
    print(f"wrote {args.out} (n={config.n}, gamma={config.gamma:g}, seed={args.seed})")
    return EXIT_OK


def cmd_classify(args) -> int:
    config = _config_from_args(args)
    report = classify(config, C=args.constant_c, eta=args.eta)
    if args.format == "json":
        payload = report.to_json()
    else:
        columns, cells = zip(*csv_cells(report))
        payload = csv_text(columns, [cells], "\n")
    _write_or_print(payload, args.out)
    if args.out is not None:
        print(f"regime={report.regime}")
    return EXIT_OK


def _max_iter(fields) -> int:
    """max_iter from a JSON object of user input, its only field; a
    non-object, any other field or an out-of-range value is a ConfigError."""
    try:
        check_keys(json_value(fields, dict, "spec field 'solver'"), ("max_iter",), "solver")
        return check_max_iter(fields.get("max_iter", MAX_ITER))
    except ConfigError as exc:
        raise ConfigError(f"solver options: {exc}") from exc


def cmd_recover(args) -> int:
    config = _config_from_args(args)
    graph = _on_file("--adjacency", args.adjacency,
                     lambda path: read_graph(path, config.n))
    max_iter = _max_iter({"max_iter": args.max_iter})
    rec = recover(args.algorithm, graph, config, max_iter, seed=args.seed,
                  restarts=args.restarts)
    if rec.partition is not None:
        labels = rec.partition.labels.tolist()
        if args.format == "json":
            payload = json_text({"algorithm": args.algorithm, "labels": labels})
        else:
            payload = csv_text(("node", "label"), enumerate(labels), "\n")
        _write_or_print(payload, args.out)
    if rec.detail:
        print(rec.detail, file=sys.stderr)
    return EXIT_CODES[rec.failure_kind]


def cmd_bench_spectral(args) -> int:
    config = _config_from_args(args)
    stats = concentration_experiment(config, trials=args.trials, seed=args.seed)
    columns = ("trial", "norm", "bound", "ratio")
    _write_or_print(table_text(stats.rows(), columns, args.format, "\n"), args.out)
    print(f"ratios: min={stats.min_ratio:.4f} mean={stats.mean_ratio:.4f} "
          f"max={stats.max_ratio:.4f}")
    return EXIT_OK


SPEC_KEYS = ("config", "example", "algorithms", "trials", "base_seed",
             "config_id", "solver", "restarts")
EXAMPLE_KEYS = ("id", "n", "constants")


def _spec_field(raw: dict, field: str, default, kind):
    """A field of a spec file, of the given kind: a JSON integer (not a
    bool), string, object or list."""
    return json_value(raw.get(field, default), kind, f"spec field {field!r}")


def _spec_from_file(path: str, args) -> ExperimentSpec:
    """The spec a file holds; an unknown key, at its top level or in its
    example entry, is a ConfigError, as is giving both config and example."""
    raw = _on_file("--spec", path, _json_object)
    check_keys(raw, SPEC_KEYS, "spec")
    if ("example" in raw) == ("config" in raw):
        raise ConfigError("spec file needs exactly one of a 'config' or 'example' entry")
    if "example" in raw:
        ex = _spec_field(raw, "example", None, dict)
        check_keys(ex, EXAMPLE_KEYS, "example")
        config = example_config(_spec_field(ex, "id", None, INTEGER),
                                _spec_field(ex, "n", None, INTEGER),
                                _spec_field(ex, "constants", {}, dict))
    else:
        config = ModelConfig.from_dict(_spec_field(raw, "config", None, dict))
    config = _with_gamma(config, args.gamma)
    max_iter = _max_iter(raw.get("solver", {}))
    return ExperimentSpec(
        config=config,
        algorithms=tuple(_spec_field(raw, "algorithms", ["convex"], list)),
        trials=_spec_field(raw, "trials", 10, INTEGER),
        base_seed=_spec_field(raw, "base_seed", args.seed, INTEGER),
        config_id=_spec_field(raw, "config_id", ExperimentSpec.config_id, str),
        max_iter=max_iter,
        restarts=_spec_field(raw, "restarts", RESTARTS, INTEGER),
    )


def cmd_montecarlo(args) -> int:
    spec = _spec_from_file(args.spec, args)
    result = run_monte_carlo(spec, workers=args.workers)
    if args.out is not None:
        _on_file("--out", args.out, lambda path: write_results(
            result.rows, path, fmt=args.format, include_timings=args.timings))
    sys.stdout.write(json_text(result.summary))
    return EXIT_OK


def _int_list(flag: str, text: str, parse) -> list[int]:
    """Parse a comma-separated flag value; a malformed token or a list with
    no token is a ConfigError."""
    try:
        values = [parse(tok) for tok in text.split(",") if tok]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag}: the list is empty")
    return values


def _whole_number(tok: str) -> int:
    """A token such as "10000" or "1e4" as an int; a fraction is a ValueError."""
    value = float(tok)
    if int(value) != value:
        raise ValueError(f"must be a whole number, got {tok}")
    return int(value)


def cmd_table1(args) -> int:
    n_grid = _int_list("--n-grid", args.n_grid, _whole_number)
    example_ids = tuple(_int_list("--examples", args.examples, int))
    rows = run_table1(n_grid, C=args.constant_c, eta=args.eta,
                      example_ids=example_ids)
    _write_or_print(table_text(rows, TABLE_COLUMNS, args.format, "\r\n"), args.out)
    if args.out is not None:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsbmlab",
        description="Laboratory for exact cluster recovery in heterogeneous "
                    "planted-partition graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a graph and write it to a file")
    _add_flags(p, "--seed", "--out", *CONFIG_SOURCE)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("classify", help="evaluate recoverability conditions")
    _add_flags(p, "--constant-C", "--eta", "--out", "--format", *CONFIG_SOURCE)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("recover", help="recover the partition from a graph file")
    _add_flags(p, "--seed", "--out", "--format", *CONFIG_SOURCE)
    p.add_argument("--adjacency", type=str, required=True, help="graph file")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="convex")
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.add_argument("--restarts", type=int, default=RESTARTS)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("bench-spectral",
                       help="sample centered adjacencies and report "
                            "norm-to-bound ratios")
    _add_flags(p, "--seed", "--out", "--format", *CONFIG_SOURCE)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_bench_spectral)

    p = sub.add_parser("montecarlo", help="run a Monte Carlo experiment spec")
    _add_flags(p, "--seed", "--gamma", "--out", "--format")
    p.add_argument("--spec", type=str, required=True, help="JSON experiment spec")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock column (breaks byte-level "
                        "reproducibility)")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("table1", help="classification margins across presets and n")
    _add_flags(p, "--constant-C", "--eta", "--out", "--format")
    p.add_argument("--n-grid", type=str, default="1e4,1e5,1e6,1e7",
                   help="comma-separated n values")
    p.add_argument("--examples", type=str, default="1,2,3,4,5,6",
                   help="comma-separated preset ids")
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
