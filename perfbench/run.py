"""hsbmlab benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload convex-easy --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one child process each

Run from the repository root; hsbmlab is imported from ./src.  A run sets
up (import, inputs, warm-up), runs whole rounds of its workload until
--seconds of round time have passed, checks every output, and prints as
its last line one JSON object: correct, attempted, failed and metrics.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import time

SETUP_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# Per-layer metrics that are a layer's self time per operation, and the
# span whose self time they sum.
SELF_TIME = {
    "convex.solve_s": "convex.solve",
    "convex.nuclear_proj_s": "convex.nuclear_proj",
    "convex.box_sum_s": "convex.box_sum",
    "convex.round_s": "convex.round",
    "generate.sample_s": "generate.sample",
    "exhaustive.scan_s": "exhaustive.scan",
    "exhaustive.local_search_s": "exhaustive.local_search",
    "counting.recover_s": "counting.recover",
    "presets.example_config_s": "presets.example_config",
    "regimes.classify_s": "regimes.classify",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="round time to measure (whole rounds, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            **{var: os.environ.get(var) for var in BLAS_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def child(args, *extra: str) -> subprocess.CompletedProcess:
    """Run this script again in a fresh interpreter and wait for it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)


def timed_round(workload, k: int):
    start = time.perf_counter()
    ops = workload.run_round(k)
    return ops, time.perf_counter() - start


def measure(workload, seconds: float):
    """Run whole rounds until their time reaches `seconds`.  Returns the
    operations, the round time and the number of rounds."""
    ops, wall, k = [], 0.0, 0
    while k == 0 or wall < seconds:
        round_ops, round_wall = timed_round(workload, k)
        ops += round_ops
        wall += round_wall
        k += 1
    return ops, wall, k


def measure_traced(workload, seconds: float, tracer):
    """Like measure, with spans on; each round also runs once without
    spans, first on odd rounds and second on even ones, and both count
    toward `seconds`.  Returns the traced operations, the traced round
    time, the number of rounds and the median ratio of traced to plain
    round time."""
    ops, wall, plain, ratios, k = [], 0.0, 0.0, [], 0
    while k == 0 or wall + plain < seconds:
        times = {}
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced:
                for point in trace_points():
                    tracer.wrap(*point)
                try:
                    round_ops, times[traced] = timed_round(workload, k)
                finally:
                    tracer.close()
                ops += round_ops
            else:
                _, times[traced] = timed_round(workload, k)
        wall += times[True]
        plain += times[False]
        ratios.append(times[True] / times[False])
        k += 1
    return ops, wall, k, statistics.median(ratios)


def trace_points():
    from hsbmlab import convex, counting, exhaustive, generate, harness
    return [
        (harness, "run_monte_carlo", "harness.run_monte_carlo", None),
        (harness, "run_trial", "harness.run_trial", None),
        (harness, "sample_adjacency", "generate.sample", None),
        (harness, "sample_observed", "generate.sample", None),
        (generate, "sample_adjacency", "generate.sample", None),
        (harness, "recover_convex", "convex.recover", None),
        (convex, "solve_convex", "convex.solve",
         lambda r: {"iterations": r.iterations, "nonconverged": int(not r.converged)}),
        (convex, "project_nuclear_ball", "convex.nuclear_proj", None),
        (convex, "project_box_sum", "convex.box_sum", None),
        (convex, "round_solution", "convex.round", None),
        (exhaustive, "solve_exhaustive", "exhaustive.scan",
         lambda r: {"partitions": r.partitions_examined}),
        (exhaustive, "local_search", "exhaustive.local_search",
         lambda r: {"swaps": r.swaps}),
        (counting, "recover_counting", "counting.recover", None),
        (harness, "run_table1", "harness.run_table1", None),
        (harness, "example_config", "presets.example_config",
         lambda c: {"clusters": c.r}),
        (harness, "classify", "regimes.classify", None),
    ]


def layer_metrics(recorded, ops: int, traced_ratio: float) -> dict:
    """Per-layer metrics from the traced run's spans; `ops` is the number
    of traced operations."""
    from spans import self_times

    own = self_times(recorded)
    by_name: dict[str, list] = {}
    for s in recorded:
        by_name.setdefault(s.name, []).append(s)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, []))

    def self_sum(name):
        return sum(own[s.id] for s in by_name.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    solves = len(by_name.get("convex.solve", []))
    trials = by_name.get("harness.run_trial", [])
    metrics = {name: self_sum(span) / ops for name, span in SELF_TIME.items()}
    metrics.update({
        "convex.iterations": total("convex.solve", "iterations"),
        "convex.iterations_per_solve": ratio(total("convex.solve", "iterations"), solves),
        "convex.nonconverged": total("convex.solve", "nonconverged"),
        "harness.trial_s": ratio(sum(s.seconds for s in trials), len(trials)),
        "harness.cpu_per_trial_s": ratio(
            sum(s.cpu for s in by_name.get("harness.run_monte_carlo", [])), len(trials)),
        "exhaustive.partitions_per_s": ratio(total("exhaustive.scan", "partitions"),
                                             self_sum("exhaustive.scan")),
        "exhaustive.swaps": total("exhaustive.local_search", "swaps"),
        "exhaustive.swaps_per_s": ratio(total("exhaustive.local_search", "swaps"),
                                        self_sum("exhaustive.local_search")),
        "presets.clusters": total("presets.example_config", "clusters") / ops,
        "trace.overhead_pct": 100.0 * (traced_ratio - 1.0),
    })
    return metrics


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment()
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    with workload.tapped():
        if args.trace:
            import spans
            tracer = spans.Tracer()
            ops, wall, rounds, ratio = measure_traced(workload, args.seconds, tracer)
        else:
            ops, wall, rounds = measure(workload, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = workload.check(ops)

    if args.trace:
        metrics = layer_metrics(tracer.spans, len(ops), ratio)
    else:
        setups = [setup_s] + [json.loads(child(args, "--setup-only").stdout
                                         .splitlines()[-1])["setup_s"]
                              for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": statistics.median(setups),
            "trials_per_s": len(ops) / wall,
            "trial_p50_s": statistics.median(op.seconds for op in ops),
            "peak_rss_mb": peak_kb / 1024.0,
        }
    failed = [op for op in ops if op.failed]
    result = {"correct": not errors, "attempted": len(ops), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": UNITS[name]}
                          for name, value in metrics.items()}}

    print(f"rounds {rounds}, round time {wall:.3f} s, attempted {len(ops)}, "
          f"failed {len(failed)}")
    for op in failed:
        print(f"failed: {op.label}: {op.detail}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    for name, value in workload.part_times(ops).items():
        print(f"part median, not gated: {name} {value:.6g} s")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "rounds": rounds, "env": env,
              "failed_ops": [f"{op.label}: {op.detail}" for op in failed],
              "errors": errors}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.to_dicts()) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, so that peak RSS and thread
    state do not carry over from one workload to the next."""
    results = {}
    for name in WORKLOAD_NAMES:
        args.workload = name
        proc = child(args)
        print(proc.stdout, end="", flush=True)
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hsbmlab" / "__init__.py").is_file():
        print(f"perfbench: no hsbmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
