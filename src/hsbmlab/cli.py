"""Command-line interface.

Subcommands: generate, classify, recover, bench-spectral, montecarlo,
table1.  Configurations come either from a JSON file (--config, schema
{"n": int, "q": float, "gamma": float, "clusters": [[size, p], ...]}) or
from a preset (--example ID --n N, constants via repeated
--constant NAME=VALUE).

Exit codes: 0 on success, 2 for infeasible configurations or failed
recovery, 3 when the convex solver does not converge.
"""

from __future__ import annotations

import argparse
import json
import sys

from .convex import SolverOptions
from .generate import sample_adjacency, sample_observed
from .graphio import read_graph, write_adjacency, write_observed
from .harness import (
    ALGORITHMS,
    ExperimentSpec,
    recover,
    run_monte_carlo,
    run_table1,
    write_results,
    write_table1,
)
from .model import ConfigError, ModelConfig
from .presets import EXAMPLE_IDS, example_config
from .regimes import classify, csv_header, csv_row

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
    add("--constant-C", type=float, default=1.0, dest="constant_c",
        help="proportionality constant for the scaled conditions")
    add("--eta", type=float, default=2.0,
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


def load_config_file(path: str) -> ModelConfig:
    with open(path) as fh:
        return ModelConfig.from_dict(json.load(fh))


def _config_from_args(args) -> ModelConfig:
    if (args.config is None) == (args.example is None):
        raise ConfigError("exactly one of --config or --example is required")
    if args.config is not None:
        config = load_config_file(args.config)
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
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    partition = config.planted_partition()
    if args.out is None:
        raise ConfigError("generate requires --out")
    if config.gamma < 1.0:
        write_observed(args.out, sample_observed(config, partition, args.seed))
    else:
        write_adjacency(args.out, sample_adjacency(config, partition, args.seed))
    print(f"wrote {args.out} (n={config.n}, gamma={config.gamma:g}, seed={args.seed})")
    return EXIT_OK


def cmd_classify(args) -> int:
    config = _config_from_args(args)
    report = classify(config, C=args.constant_c, eta=args.eta)
    if args.format == "json":
        payload = report.to_json()
    else:
        header = ",".join(csv_header(report))
        payload = header + "\n" + ",".join(csv_row(report))
    _write_or_print(payload, args.out)
    if args.out is not None:
        print(f"regime={report.regime}")
    return EXIT_OK


def _solver_options(fields) -> SolverOptions:
    """SolverOptions from a mapping of user input; a non-mapping, an unknown
    field or an out-of-range value is a ConfigError."""
    try:
        return SolverOptions(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver options: {exc}") from exc


def cmd_recover(args) -> int:
    config = _config_from_args(args)
    graph = read_graph(args.adjacency)
    solver = _solver_options({"max_iter": args.max_iter, "step": args.step,
                              "rounding_threshold": args.threshold})
    rec = recover(args.algorithm, graph, config, solver, seed=args.seed,
                  restarts=args.restarts)
    if rec.partition is not None:
        labels = rec.partition.labels.tolist()
        if args.format == "json":
            payload = json.dumps({"algorithm": args.algorithm, "labels": labels},
                                 indent=2, sort_keys=True)
        else:
            lines = ["node,label"] + [f"{i},{lab}" for i, lab in enumerate(labels)]
            payload = "\n".join(lines)
        _write_or_print(payload, args.out)
    if rec.detail:
        print(rec.detail, file=sys.stderr)
    return EXIT_CODES[rec.failure_kind]


def cmd_bench_spectral(args) -> int:
    from .spectral import concentration_experiment

    config = _config_from_args(args)
    stats = concentration_experiment(config, trials=args.trials, seed=args.seed)
    rows = stats.rows()
    if args.format == "json":
        payload = json.dumps(rows, indent=2, sort_keys=True)
    else:
        lines = ["trial,norm,bound,ratio"]
        lines += [f"{r['trial']},{r['norm']!r},{r['bound']!r},{r['ratio']!r}"
                  for r in rows]
        payload = "\n".join(lines)
    _write_or_print(payload, args.out)
    print(f"ratios: min={stats.min_ratio:.4f} mean={stats.mean_ratio:.4f} "
          f"max={stats.max_ratio:.4f}")
    return EXIT_OK


def _spec_from_file(path: str, args) -> ExperimentSpec:
    with open(path) as fh:
        raw = json.load(fh)
    if "example" in raw:
        ex = raw["example"]
        config = example_config(ex["id"], ex["n"], ex.get("constants"))
    elif "config" in raw:
        config = ModelConfig.from_dict(raw["config"])
    else:
        raise ConfigError("spec file needs a 'config' or 'example' entry")
    config = _with_gamma(config, args.gamma)
    solver = None
    if "solver" in raw:
        solver = _solver_options(raw["solver"])
    return ExperimentSpec(
        config=config,
        algorithms=tuple(raw.get("algorithms", ["convex"])),
        trials=int(raw.get("trials", 10)),
        base_seed=int(raw.get("base_seed", args.seed)),
        config_id=str(raw.get("config_id", "config")),
        solver_options=solver,
        restarts=int(raw.get("restarts", 10)),
    )


def cmd_montecarlo(args) -> int:
    spec = _spec_from_file(args.spec, args)
    result = run_monte_carlo(spec, workers=args.workers)
    if args.out is not None:
        write_results(result.rows, args.out, fmt=args.format,
                      include_timings=args.timings)
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    return EXIT_OK


def _int_list(flag: str, text: str, parse) -> list[int]:
    """Parse a comma-separated flag value; a malformed token is a ConfigError."""
    try:
        return [parse(tok) for tok in text.split(",") if tok]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def cmd_table1(args) -> int:
    n_grid = _int_list("--n-grid", args.n_grid, lambda tok: int(float(tok)))
    example_ids = tuple(_int_list("--examples", args.examples, int))
    rows = run_table1(n_grid, C=args.constant_c, eta=args.eta,
                      example_ids=example_ids)
    if args.out is None:
        for row in rows:
            print(row)
    else:
        write_table1(rows, args.out, fmt=args.format)
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
    p.add_argument("--max-iter", type=int, default=SolverOptions().max_iter)
    p.add_argument("--step", type=float, default=SolverOptions().step)
    p.add_argument("--threshold", type=float,
                   default=SolverOptions().rounding_threshold)
    p.add_argument("--restarts", type=int, default=10)
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
