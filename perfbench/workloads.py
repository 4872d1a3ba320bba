"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, warms up, and then
runs whole rounds of the same operations; run.py times the rounds.  It
calls hsbmlab through module attributes (``harness.run_monte_carlo``, not a
name imported from it), so that the traced run's wrappers see every call.
The outputs a check needs are kept on each operation and checked after the
timed region by the oracles in checks.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import statistics
import time
from dataclasses import dataclass

from hsbmlab import counting, exhaustive, generate, harness
from hsbmlab.model import ModelConfig, Partition

import checks

NPROC = len(os.sched_getaffinity(0))
# Seeds of round k of a run with workload seed s start at s * SEED_STRIDE,
# so runs with different workload seeds draw disjoint graphs.
SEED_STRIDE = 10**6
TABLE1_GRID = (10**4, 10**5, 10**6, 10**7, 10**8)


@dataclass
class Op:
    """One operation: its name (with its seed), its seconds, and what the
    checks need."""

    label: str
    seconds: float
    output: object
    failed: bool = False
    detail: str = ""


def digest(matrix) -> str:
    return hashlib.blake2b(matrix.tobytes(), digest_size=16).hexdigest()


@contextlib.contextmanager
def replaced(module, attr: str, make):
    """Replace module.attr by make(original) for the duration."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        """Run the workload's code path once on inputs outside the timed set."""

    def tapped(self):
        """Context in which the workload records what its checks need from
        inside the program; active in the timed region of every run."""
        return contextlib.nullcontext()

    def run_round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> list[str]:
        raise NotImplementedError

    def part_times(self, ops: list[Op]) -> dict[str, float]:
        """Median seconds of each part of an operation, for workloads whose
        operations have parts."""
        return {}


class ConvexWorkload(Workload):
    """Rounds of ``run_monte_carlo`` on the convex relaxation, as
    ``hsbmlab montecarlo`` runs them.  A row that stops unconverged is a
    failed operation; every other row is checked against its re-derived
    graph."""

    config: ModelConfig
    trials: int
    workers: int

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sizes = self.config.sizes.tolist()
        self.planted = Partition(checks.planted_labels(self.config.n, self.sizes))
        self.captured: dict[str, tuple] = {}

    def base_seed(self, k: int) -> int:
        return self.seed * SEED_STRIDE + k * self.trials

    def spec(self, base_seed: int, trials: int):
        return harness.ExperimentSpec(self.config, ("convex",), trials=trials,
                                      base_seed=base_seed, config_id=self.name)

    def tapped(self):
        def make(original):
            def recover_convex(adjacency, config, options=None):
                rec = original(adjacency, config, options)
                labels = None if rec.partition is None else rec.partition.labels
                self.captured[digest(adjacency.matrix)] = (labels, rec.solver.iterations)
                return rec
            return recover_convex
        return replaced(harness, "recover_convex", make)

    def run_round(self, k: int) -> list[Op]:
        result = harness.run_monte_carlo(self.spec(self.base_seed(k), self.trials),
                                         workers=self.workers)
        return [Op(f"trial {row.trial} seed {row.seed}", row.wall_time, row,
                   failed=row.failure_kind == "nonconvergence")
                for row in result.rows]

    def graph(self, seed: int):
        if self.config.gamma < 1.0:
            observed = generate.sample_observed(self.config, self.planted, seed)
            return observed.to_adjacency(unobserved_as=0).matrix
        return generate.sample_adjacency(self.config, self.planted, seed).matrix

    def check(self, ops: list[Op]) -> list[str]:
        errors = []
        for op in ops:
            row = op.output
            A = self.graph(row.seed)
            labels, iterations = self.captured.get(digest(A), (None, None))
            if iterations is None:
                errors.append(f"{op.label}: no solve of the re-derived graph was seen")
                continue
            if op.failed:
                op.detail = f"stopped unconverged after {iterations} iterations"
            errors += [f"{op.label}: {e}" for e in checks.check_convex_trial(
                A, self.sizes, row.failure_kind, row.objective, labels)]
        return errors


class ConvexEasy(ConvexWorkload):
    name = "convex-easy"
    config = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05)
    trials = 20
    workers = NPROC

    def warm_up(self) -> None:
        harness.run_monte_carlo(self.spec(0, self.workers), workers=self.workers)


class ConvexPartial(ConvexWorkload):
    """The draws are criterion 10's first seven at base seed 0, whatever the
    workload seed.  About 4% of that config's draws stop at max_iter, so
    seed-dependent draws would fail a varying share of operations; draw 3
    stops at max_iter on every run.  The six short draws on either side of
    it keep the median trial time from resting on a few seconds."""

    name = "convex-partial"
    config = ModelConfig(200, [(100, 0.5), (100, 0.5)], 0.05, gamma=0.6)
    trials = 7
    workers = 1

    def base_seed(self, k: int) -> int:
        return 0

    def warm_up(self) -> None:
        # Draw 8 converges in about 40 iterations.
        harness.run_monte_carlo(self.spec(8, 1), workers=1)


PARTS = ("exhaustive_trial_s", "local_search_trial_s", "counting_trial_s")


class Combinatorial(Workload):
    """One operation is one trial of each combinatorial method, each on its
    own graph drawn with the public sampler from the operation's seed:
    the exhaustive scan, local search, and counting.  The operation's time
    covers sampling and recovery; each part's time is kept apart too."""

    name = "combinatorial"
    scan_config = ModelConfig(14, [(5, 0.9), (5, 0.9)], 0.05)
    search_config = ConvexEasy.config
    count_config = ModelConfig(400, [(200, 0.95), (200, 0.95)], 0.005)
    restarts = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.scan_planted, self.search_planted, self.count_planted = (
            Partition(checks.planted_labels(c.n, c.sizes.tolist()))
            for c in (self.scan_config, self.search_config, self.count_config))

    def warm_up(self) -> None:
        tiny = ModelConfig(6, [(2, 0.9), (2, 0.9)], 0.05)
        exhaustive.solve_exhaustive(
            generate.sample_adjacency(tiny, tiny.planted_partition(), 0), tiny)
        tiny = ModelConfig(20, [(10, 0.5), (10, 0.5)], 0.05)
        exhaustive.local_search(
            generate.sample_adjacency(tiny, tiny.planted_partition(), 0), tiny,
            seed=0, restarts=1)
        counting.recover_counting(
            generate.sample_adjacency(self.count_config, self.count_planted, 0),
            self.count_config)

    def scan(self, seed: int):
        graph = generate.sample_adjacency(self.scan_config, self.scan_planted, seed)
        res = exhaustive.solve_exhaustive(graph, self.scan_config)
        return graph.matrix, res.objective, res.partitions_examined, res.partition.labels

    def search(self, seed: int):
        graph = generate.sample_adjacency(self.search_config, self.search_planted, seed)
        res = exhaustive.local_search(graph, self.search_config, seed=seed,
                                      restarts=self.restarts)
        return graph.matrix, res.objective, res.partition.labels

    def count(self, seed: int):
        graph = generate.sample_adjacency(self.count_config, self.count_planted, seed)
        rec = counting.recover_counting(graph, self.count_config)
        return None if rec.partition is None else rec.partition.labels

    def run_round(self, k: int) -> list[Op]:
        seed = self.seed * SEED_STRIDE + k
        outputs, parts = [], {}
        for name, part in zip(PARTS, (self.scan, self.search, self.count)):
            start = time.perf_counter()
            outputs.append(part(seed))
            parts[name] = time.perf_counter() - start
        return [Op(f"seed {seed}", sum(parts.values()), (*outputs, parts))]

    def check(self, ops: list[Op]) -> list[str]:
        errors = []
        for op in ops:
            scanned, searched, counted, _ = op.output
            for part, found in (
                    ("exhaustive", checks.check_exhaustive(
                        scanned[0], self.scan_config.sizes.tolist(), *scanned[1:])),
                    ("local search", checks.check_local_search(
                        searched[0], self.search_config.sizes.tolist(), *searched[1:])),
                    ("counting", checks.check_counting(
                        self.count_config.n, self.count_config.sizes.tolist(), counted))):
                errors += [f"{op.label}: {part}: {e}" for e in found]
        return errors

    def part_times(self, ops: list[Op]) -> dict[str, float]:
        return {name: statistics.median(op.output[3][name] for op in ops)
                for name in PARTS}


class Table1(Workload):
    """One operation is one ``run_table1`` pass over all six presets on the
    grid; the table is deterministic, so the workload seed does not apply."""

    name = "table1"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.shapes: dict[tuple[int, int], tuple[int, int]] = {}

    def warm_up(self) -> None:
        harness.run_table1(TABLE1_GRID[:1])

    def tapped(self):
        def make(original):
            def example_config(example_id, n, constants=None):
                config = original(example_id, n, constants)
                self.shapes[(example_id, n)] = (config.r, int(config.sizes.sum()))
                return config
            return example_config
        return replaced(harness, "example_config", make)

    def run_round(self, k: int) -> list[Op]:
        start = time.perf_counter()
        rows = harness.run_table1(TABLE1_GRID)
        return [Op(f"pass {k}", time.perf_counter() - start, rows)]

    def check(self, ops: list[Op]) -> list[str]:
        errors = []
        for op in ops:
            errors += [f"{op.label}: {e}" for e in checks.check_table1(op.output, self.shapes)]
        return errors


WORKLOADS = {w.name: w for w in (ConvexEasy, ConvexPartial, Combinatorial, Table1)}
