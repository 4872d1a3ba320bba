"""End-to-end tests of the command-line interface: configuration sources,
each subcommand's outputs and exit codes, and byte-level reproducibility
of written files."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hsbmlab
from hsbmlab import Adjacency, ObservedMatrix, read_graph
from hsbmlab.cli import main
from hsbmlab.harness import RESULT_COLUMNS, TABLE_COLUMNS

SMALL = {"n": 10, "q": 0.05, "clusters": [[5, 0.9], [5, 0.9]]}
EASY = {"n": 200, "q": 0.05, "clusters": [[100, 0.5], [100, 0.5]]}
TIE = {"n": 4, "q": 0.998, "clusters": [[2, 0.999], [2, 0.999]]}
# One cluster of 4 on 8 nodes: on seeds 2, 4, 5, 8, 11, 25 and 33 of 0-39
# the convex rounding gives cliques of other sizes.
WRONG_SIZES = {"n": 8, "q": 0.2, "clusters": [[4, 0.5]]}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture()
def small_graph(tmp_path, small_config):
    path = tmp_path / "small.graph"
    assert main(["generate", "--config", small_config, "--out", str(path)]) == 0
    return str(path)


def grouped(labels, blocks):
    """True when the label list realizes the given node blocks."""
    return all(len({labels[i] for i in block}) == 1 for block in blocks) and len(
        {labels[block[0]] for block in blocks}
    ) == len(blocks)


class TestConfigSources:
    def test_exactly_one_source_required(self, small_config, capsys):
        assert main(["classify"]) == 2
        assert main(["classify", "--config", small_config,
                     "--example", "1", "--n", "100"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--config or --example" in err

    def test_example_requires_n(self, capsys):
        assert main(["classify", "--example", "1"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_malformed_constant_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--example", "2", "--n", "1000",
                  "--constant", "c2.0"])
        assert info.value.code == 2


class TestGenerate:
    def test_writes_adjacency(self, tmp_path, small_config, capsys):
        out = tmp_path / "g.txt"
        assert main(["generate", "--config", small_config,
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        graph = read_graph(out, 10)
        assert isinstance(graph, Adjacency)
        assert graph.matrix.shape == (10, 10)

    def test_seed_determines_bytes(self, tmp_path, small_config):
        paths = [tmp_path / name for name in ("a", "b", "c")]
        for path, seed in zip(paths, ("5", "5", "6")):
            main(["generate", "--config", small_config, "--seed", seed,
                  "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_gamma_override_writes_observed_format(self, tmp_path, small_config):
        out = tmp_path / "partial.txt"
        assert main(["generate", "--config", small_config, "--gamma", "0.6",
                     "--out", str(out)]) == 0
        assert isinstance(read_graph(out, 10), ObservedMatrix)

    def test_preset_source(self, tmp_path):
        out = tmp_path / "preset.txt"
        assert main(["generate", "--example", "1", "--n", "100",
                     "--out", str(out)]) == 0
        assert read_graph(out, 100).matrix.shape == (100, 100)

    def test_out_is_required(self, small_config, capsys):
        assert main(["generate", "--config", small_config]) == 2
        assert "error:" in capsys.readouterr().err


class TestClassify:
    def test_csv_to_stdout(self, small_config, capsys):
        assert main(["classify", "--config", small_config]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].count(",") == lines[1].count(",") > 0
        assert "regime" in lines[0]

    def test_json_to_file(self, tmp_path, capsys):
        config = tmp_path / "easy.json"
        config.write_text(json.dumps(EASY))
        out = tmp_path / "report.json"
        assert main(["classify", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
        assert "regime=easy" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["regime"] == "easy"

    def test_gamma_classifies_the_collapsed_model(self, tmp_path, capsys):
        # At gamma = 1 this config is easy; observed at rate 0.05 it is the
        # collapsed model p = 0.025, q = 0.0025 that recovery solves.
        config = tmp_path / "easy.json"
        config.write_text(json.dumps(EASY))
        out = tmp_path / "report.json"
        assert main(["classify", "--config", str(config), "--gamma", "0.05",
                     "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "regime=unknown\n"
        report = json.loads(out.read_text())
        assert report["config"]["gamma"] == 0.05
        assert report["checks"]["easy_global"]["binding_margin"] < 1.0

    def test_preset_with_constant_override(self, capsys):
        assert main(["classify", "--example", "2", "--n", "1000",
                     "--constant", "c=2.0"]) == 0
        assert capsys.readouterr().out.strip() != ""

    def test_n_beyond_int64_exits_2(self, capsys):
        assert main(["classify", "--example", "1", "--n", str(10**20)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: example 1 infeasible at n = ")
        assert "int64 range" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, reason", [
        (["--example", "1", "--n", "10000", "--eta", "0"], "eta must be positive, got 0.0"),
        (["--example", "2", "--n", "1000", "--constant-C", "-1"],
         "C must be positive, got -1.0"),
        (["--example", "2", "--n", "1000", "--constant-C", "nan"],
         "C must be positive, got nan"),
        (["--example", "3", "--n", "10000", "--constant", "p1=nan"],
         "example 3 infeasible at n = 10000: cluster probabilities must be in [0, 1]"),
        (["--example", "3", "--n", "10000", "--constant", "m=nan"],
         "example 3 constant 'm' must be a whole number, got nan"),
        (["--example", "3", "--n", "10000", "--constant", "m=inf"],
         "example 3 constant 'm' must be a whole number, got inf"),
        (["--example", "5", "--n", "10000", "--constant", "m=2.5"],
         "example 5 constant 'm' must be a whole number, got 2.5"),
        (["--example", "6", "--n", "10000", "--constant", "q=0.3",
          "--constant", "p_min=0.4", "--constant", "p2=0.7", "--constant", "p3=0.7",
          "--constant", "n_min=30.7", "--constant", "n3=30", "--constant", "k3=1"],
         "example 6 constant 'n_min' must be a whole number, got 30.7"),
    ])
    def test_bad_constant_exits_2(self, flags, reason, capsys):
        assert main(["classify", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {reason}\n"
        assert captured.out == ""

    def test_zero_q_exits_2(self, tmp_path, capsys):
        # ModelConfig accepts q = 0, but the divergences need q in (0, 1).
        config = tmp_path / "q0.json"
        config.write_text(json.dumps({"n": 20, "q": 0.0,
                                      "clusters": [[10, 0.9], [10, 0.8]]}))
        assert main(["classify", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: q must lie strictly inside (0, 1), got 0.0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("fields, reason", [
        ({"n": "10"}, "n must be an integer, got '10'"),
        ({"n": 10.0}, "n must be an integer, got 10.0"),
        ({"q": "0.05"}, "q must be a number, got '0.05'"),
        ({"gamma": True}, "gamma must be a number, got True"),
        ({"clusters": [[5, "0.9"], [5, 0.9]]},
         "cluster probability must be a number, got '0.9'"),
        ({"clusters": [[5, 0.9], [5, None]]},
         "cluster probability must be a number, got None"),
        # json writes and reads the NaN literal.
        ({"clusters": [[5, float("nan")], [5, 0.9]]},
         "cluster probabilities must be in [0, 1]"),
    ], ids=["string-n", "float-n", "string-q", "bool-gamma", "string-p", "null-p",
            "nan-p"])
    def test_non_number_config_field_exits_2(self, tmp_path, capsys, fields, reason):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps({"n": 10, "q": 0.05,
                                      "clusters": [[5, 0.9], [5, 0.9]], **fields}))
        assert main(["classify", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {reason}\n"
        assert captured.out == ""


class TestRecover:
    def test_convex_success_prints_labels(self, small_config, small_graph, capsys):
        assert main(["recover", "--config", small_config,
                     "--adjacency", small_graph]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "node,label"
        labels = [int(line.split(",")[1]) for line in lines[1:]]
        assert grouped(labels, [list(range(5)), list(range(5, 10))])

    def test_json_payload(self, small_config, small_graph, capsys):
        assert main(["recover", "--config", small_config,
                     "--adjacency", small_graph, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "convex"
        assert len(payload["labels"]) == 10

    def test_out_file_holds_labels(self, tmp_path, small_config, small_graph,
                                   capsys):
        out = tmp_path / "labels.csv"
        assert main(["recover", "--config", small_config,
                     "--adjacency", small_graph, "--out", str(out)]) == 0
        assert out.read_text().startswith("node,label\n")
        assert capsys.readouterr().out == ""

    def test_rounding_failure_exits_2(self, tmp_path, small_config, capsys):
        # Seed 34 is a draw whose relaxation optimum (about 43.0) exceeds
        # the combinatorial maximum plus the diagonal (42), so no partition
        # attains it and rounding meets a non-clique.
        graph = tmp_path / "seed34.graph"
        main(["generate", "--config", small_config, "--seed", "34",
              "--out", str(graph)])
        capsys.readouterr()
        assert main(["recover", "--config", small_config,
                     "--adjacency", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("not_clique: component of 9 nodes is missing 15 "
                                "pairs above threshold 0.5\n")
        assert captured.out == ""

    def test_size_mismatch_exits_2(self, tmp_path, capsys):
        config = tmp_path / "wrong_sizes.json"
        config.write_text(json.dumps(WRONG_SIZES))
        graph = tmp_path / "seed2.graph"
        main(["generate", "--config", str(config), "--seed", "2",
              "--out", str(graph)])
        capsys.readouterr()
        assert main(["recover", "--config", str(config),
                     "--adjacency", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("size_mismatch: component sizes [3] != "
                                "configured [4]\n")
        assert captured.out == ""

    def test_nonconvergence_exits_3(self, small_config, tmp_path, capsys):
        # Seed 36 has a fractional relaxation optimum, so no certificate
        # can stop the solver within one iteration.
        graph = tmp_path / "seed36.graph"
        main(["generate", "--config", small_config, "--seed", "36",
              "--out", str(graph)])
        capsys.readouterr()
        assert main(["recover", "--config", small_config,
                     "--adjacency", str(graph), "--max-iter", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("nonconvergence: no convergence in 1 iterations "
                                "(change 1.853e-01, nuclear residual 2.542e-01, "
                                "gap inf)\n")
        assert captured.out == ""

    def test_counting_success(self, small_config, small_graph, capsys):
        assert main(["recover", "--config", small_config,
                     "--adjacency", small_graph,
                     "--algorithm", "counting"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        labels = [int(line.split(",")[1]) for line in lines[1:]]
        assert grouped(labels, [list(range(5)), list(range(5, 10))])

    def test_counting_failure_exits_2(self, tmp_path, small_config, capsys):
        graph = tmp_path / "seed2.graph"
        main(["generate", "--config", small_config, "--seed", "2",
              "--out", str(graph)])
        capsys.readouterr()
        assert main(["recover", "--config", small_config,
                     "--adjacency", str(graph),
                     "--algorithm", "counting"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "not_clique: component of 10 nodes is missing 29 links\n"
        assert captured.out == ""

    def test_counting_size_mismatch_exits_2(self, tmp_path, capsys):
        config = tmp_path / "tie.json"
        config.write_text(json.dumps(TIE))
        graph = tmp_path / "tie.graph"
        main(["generate", "--config", str(config), "--out", str(graph)])
        capsys.readouterr()
        assert main(["recover", "--config", str(config),
                     "--adjacency", str(graph), "--algorithm", "counting"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("size_mismatch: component sizes [4] != "
                                "configured [2, 2]\n")
        assert captured.out == ""

    def test_exhaustive_tie_warns_but_exits_0(self, tmp_path, capsys):
        config = tmp_path / "tie.json"
        config.write_text(json.dumps(TIE))
        graph = tmp_path / "tie.graph"
        main(["generate", "--config", str(config), "--out", str(graph)])
        capsys.readouterr()
        assert main(["recover", "--config", str(config),
                     "--adjacency", str(graph),
                     "--algorithm", "exhaustive"]) == 0
        captured = capsys.readouterr()
        assert "tie:" in captured.err and "maximizers" in captured.err
        assert captured.out.startswith("node,label")

    def test_local_search(self, small_config, small_graph, capsys):
        assert main(["recover", "--config", small_config,
                     "--adjacency", small_graph,
                     "--algorithm", "local-search"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        labels = [int(line.split(",")[1]) for line in lines[1:]]
        assert grouped(labels, [list(range(5)), list(range(5, 10))])

    def test_partially_observed_input(self, tmp_path, capsys):
        config = tmp_path / "partial.json"
        config.write_text(json.dumps(dict(EASY, gamma=0.6)))
        graph = tmp_path / "partial.graph"
        main(["generate", "--config", str(config), "--out", str(graph)])
        capsys.readouterr()
        assert main(["recover", "--config", str(config),
                     "--adjacency", str(graph)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        labels = [int(line.split(",")[1]) for line in lines[1:]]
        assert grouped(labels, [list(range(100)), list(range(100, 200))])


    @pytest.mark.parametrize("flag,value,field", [
        ("--max-iter", "0", "max_iter"),
    ])
    def test_out_of_range_solver_option_exits_2(self, small_config, small_graph,
                                               capsys, flag, value, field):
        assert main(["recover", "--config", small_config,
                     "--adjacency", small_graph, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: solver options: ")
        assert field in captured.err
        assert captured.out == ""

    def test_observed_graph_with_full_config_exits_2(self, tmp_path,
                                                     small_config, capsys):
        graph = tmp_path / "partial.graph"
        main(["generate", "--config", small_config, "--gamma", "0.6",
              "--out", str(graph)])
        capsys.readouterr()
        unobserved = int((read_graph(graph, 10).values == -1).sum()) // 2
        assert unobserved > 0
        assert main(["recover", "--config", small_config,
                     "--adjacency", str(graph), "--algorithm", "exhaustive"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert f"{unobserved} unobserved pairs" in captured.err
        assert "gamma = 1" in captured.err
        assert captured.out == ""
        # With the observation rate given, the same file is recovered.
        assert main(["recover", "--config", small_config, "--gamma", "0.6",
                     "--adjacency", str(graph), "--algorithm", "exhaustive"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("node,label")

    @pytest.mark.parametrize("algorithm", hsbmlab.ALGORITHMS)
    def test_graph_of_wrong_size_exits_2(self, tmp_path, small_graph, algorithm,
                                         capsys):
        config = tmp_path / "n12.json"
        config.write_text(json.dumps(dict(SMALL, n=12)))
        assert main(["recover", "--config", str(config), "--adjacency",
                     small_graph, "--algorithm", algorithm]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: adjacency has 10 nodes but config has n = 12\n"
        assert captured.out == ""

    def test_header_refused_before_allocating(self, tmp_path, small_config, capsys):
        # The n x n matrix of this header would take 10**16 bytes.
        graph = tmp_path / "huge.graph"
        graph.write_text("100000000 0\n")
        assert main(["recover", "--config", small_config,
                     "--adjacency", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: adjacency has 100000000 nodes but config "
                                "has n = 10\n")
        assert captured.out == ""

    def test_zero_restarts_exits_2(self, small_config, small_graph, capsys):
        assert main(["recover", "--config", small_config, "--adjacency",
                     small_graph, "--algorithm", "local-search",
                     "--restarts", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: restarts must be >= 1, got 0\n"
        assert captured.out == ""


class TestBenchSpectral:
    def test_csv_output_and_summary(self, tmp_path, small_config, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench-spectral", "--config", small_config,
                     "--trials", "5", "--out", str(out)]) == 0
        assert "ratios: min=" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,norm,bound,ratio"
        assert len(lines) == 6

    def test_json_reruns_byte_identical(self, tmp_path, small_config):
        paths = [tmp_path / "x.json", tmp_path / "y.json"]
        for path in paths:
            main(["bench-spectral", "--config", small_config, "--trials", "4",
                  "--format", "json", "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(json.loads(paths[0].read_text())) == 4

    def test_zero_trials_exits_2(self, small_config, capsys):
        assert main(["bench-spectral", "--config", small_config,
                     "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: trials must be >= 1, got 0\n"
        assert captured.out == ""


class TestMonteCarlo:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "config": SMALL,
            "algorithms": ["counting", "local-search"],
            "trials": 2,
            "config_id": "cli",
        }))
        return str(path)

    def test_summary_stdout_and_csv(self, tmp_path, spec_file, capsys):
        out = tmp_path / "rows.csv"
        assert main(["montecarlo", "--spec", spec_file, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"counting", "local-search"}
        assert summary["local-search"]["trials"] == 2
        header = out.read_text().splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)

    def test_worker_count_files_byte_identical(self, tmp_path, spec_file):
        paths = [tmp_path / "w1.csv", tmp_path / "w4.csv"]
        for path, workers in zip(paths, ("1", "4")):
            main(["montecarlo", "--spec", spec_file, "--workers", workers,
                  "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_timings_column_opt_in(self, tmp_path, spec_file):
        out = tmp_path / "timed.csv"
        main(["montecarlo", "--spec", spec_file, "--timings",
              "--out", str(out)])
        assert out.read_text().splitlines()[0].endswith(",wall_time")

    def test_example_entry(self, tmp_path, capsys):
        path = tmp_path / "preset_spec.json"
        path.write_text(json.dumps({
            "example": {"id": 1, "n": 30},
            "algorithms": ["local-search"],
            "trials": 1,
        }))
        assert main(["montecarlo", "--spec", str(path)]) == 0
        assert "local-search" in json.loads(capsys.readouterr().out)

    def test_solver_entry_applies(self, tmp_path, capsys):
        path = tmp_path / "solver_spec.json"
        path.write_text(json.dumps({
            "config": SMALL,
            "algorithms": ["convex"],
            "trials": 2,
            # Seeds 35 and 36: neither can be certified in one iteration.
            "base_seed": 35,
            "solver": {"max_iter": 1},
        }))
        assert main(["montecarlo", "--spec", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["convex"]["failure_counts"]["nonconvergence"] == 2

    def test_unknown_solver_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo_spec.json"
        path.write_text(json.dumps({
            "config": SMALL,
            "algorithms": ["convex"],
            "trials": 1,
            "solver": {"max_iters": 5},
        }))
        assert main(["montecarlo", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: solver options: ")
        assert "max_iters" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [5.0, True])
    def test_non_integer_max_iter_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "max_iter_spec.json"
        path.write_text(json.dumps({
            "config": SMALL,
            "algorithms": ["convex"],
            "trials": 1,
            "solver": {"max_iter": value},
        }))
        assert main(["montecarlo", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: solver options: max_iter must be an "
                                f"integer, got {value!r}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("field, value", [
        ("trials", "abc"), ("trials", 2.7), ("trials", True), ("trials", "3"),
        ("base_seed", 1.5), ("base_seed", None), ("restarts", 2.0),
    ])
    def test_malformed_spec_integer_exits_2(self, tmp_path, capsys, field, value):
        spec = {"config": SMALL, "algorithms": ["local-search"], "trials": 1}
        spec[field] = value
        path = tmp_path / "int_spec.json"
        path.write_text(json.dumps(spec))
        assert main(["montecarlo", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: spec field {field!r} must be an "
                                f"integer, got {value!r}\n")
        assert captured.out == ""

    def test_former_solver_field_exits_2(self, tmp_path, capsys):
        # The change-test tolerance, the Douglas-Rachford step and the
        # rounding threshold are constants, not solver options.
        for field, value in (("tol_change", 1e-9), ("step", 1.0),
                             ("rounding_threshold", 0.5)):
            path = tmp_path / f"{field}_spec.json"
            path.write_text(json.dumps({
                "config": SMALL,
                "algorithms": ["convex"],
                "trials": 1,
                "solver": {"max_iter": 5, field: value},
            }))
            assert main(["montecarlo", "--spec", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: solver options: ")
            assert field in captured.err
            assert captured.out == ""

    def test_zero_restarts_in_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "restarts_spec.json"
        path.write_text(json.dumps({
            "config": SMALL,
            "algorithms": ["convex", "local-search"],
            "trials": 1,
            "restarts": 0,
        }))
        assert main(["montecarlo", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: restarts must be >= 1, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("entries, reason", [
        ({"example": {"n": 100}}, "spec field 'id' must be an integer, got None"),
        ({"example": 3}, "spec field 'example' must be an object, got 3"),
        ({"example": {"id": 1, "n": "100"}},
         "spec field 'n' must be an integer, got '100'"),
        ({"example": {"id": 1, "n": 100, "constants": [1]}},
         "spec field 'constants' must be an object, got [1]"),
        ({"example": {"id": 2, "n": 1000, "constants": {"c": "x"}}},
         "example 2 constant 'c' must be a number, got 'x'"),
        ({"example": {"id": 2, "n": 1000, "constants": {"c": True}}},
         "example 2 constant 'c' must be a number, got True"),
        ({"config": SMALL, "algorithms": "convex"},
         "spec field 'algorithms' must be a list, got 'convex'"),
        ({"config": SMALL, "config_id": ["a"]},
         "spec field 'config_id' must be a string, got ['a']"),
    ], ids=["no-id", "example-3", "string-n", "constants-list", "constant-string",
            "constant-bool", "algorithms-string", "config-id-list"])
    def test_malformed_spec_entry_exits_2(self, tmp_path, capsys, entries, reason):
        path = tmp_path / "entry_spec.json"
        path.write_text(json.dumps({"trials": 1, **entries}))
        assert main(["montecarlo", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {reason}\n"
        assert captured.out == ""

    def test_zero_workers_exits_2(self, spec_file, capsys):
        assert main(["montecarlo", "--spec", spec_file, "--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: workers must be >= 1, got 0\n"
        assert captured.out == ""

    def test_spec_without_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad_spec.json"
        path.write_text(json.dumps({"trials": 2}))
        assert main(["montecarlo", "--spec", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSeedRange:
    """A seed outside [0, 2**64) prints `error: ...` and exits 2; seed 2**64
    would otherwise draw the observation stream of seed 0."""

    @pytest.mark.parametrize("command, seed", [
        ("generate", "-1"), ("generate", str(2**64)), ("bench-spectral", "-1"),
    ])
    def test_seed_flag(self, tmp_path, small_config, command, seed, capsys):
        argv = [command, "--config", small_config, "--seed", seed]
        if command == "generate":
            argv += ["--out", str(tmp_path / "graph")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"
        assert captured.out == ""

    def test_spec_base_seed(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"config": SMALL, "trials": 2, "base_seed": -3}))
        assert main(["montecarlo", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an integer in [0, 2**64), got -3\n"
        assert captured.out == ""


class TestInputFiles:
    """A --config, --spec or --adjacency file that is missing, unreadable
    or malformed, or an --out file that cannot be written, prints
    `error: FLAG PATH: reason` and exits 2."""

    CASES = {
        "missing": (None, "No such file or directory"),
        "truncated-json": ('{"config": ', "Expecting value"),
        "list-json": ("[1, 2]", "expected a JSON object, got list"),
        "number-json": ("5", "expected a JSON object, got int"),
        "not-utf8": (b"\xff\xfe", "can't decode"),
    }
    GRAPHS = {
        "missing": (None, "No such file or directory"),
        "bare-header": ("2\n", "header must be 'n m', got '2'"),
        "short-header": ("10 3\n0 1\n", "header promises 3 pair lines"),
        "non-integer-pair": ("10 1\na b\n", "invalid literal for int()"),
        "repeated-edge": ("10 2\n0 1\n0 1\n", "pair (0, 1) listed twice"),
        "repeated-observed-pair": ("10 2\n0 1 1\n1 0 0\n",
                                   "pair (0, 1) listed twice"),
    }

    @staticmethod
    def write(tmp_path, content):
        path = tmp_path / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        return str(path)

    def check(self, argv, flag, path, reason, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} {path}: ")
        assert reason in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("command", ["classify", "generate", "recover"])
    def test_config_file(self, tmp_path, small_graph, command, case, capsys):
        content, reason = self.CASES[case]
        path = self.write(tmp_path, content)
        extra = {"classify": [], "generate": ["--out", str(tmp_path / "g")],
                 "recover": ["--adjacency", small_graph]}[command]
        self.check([command, "--config", path, *extra], "--config", path, reason,
                   capsys)

    @pytest.mark.parametrize("case", CASES)
    def test_spec_file(self, tmp_path, case, capsys):
        content, reason = self.CASES[case]
        path = self.write(tmp_path, content)
        self.check(["montecarlo", "--spec", path], "--spec", path, reason, capsys)

    @pytest.mark.parametrize("case", GRAPHS)
    def test_adjacency_file(self, tmp_path, small_config, case, capsys):
        content, reason = self.GRAPHS[case]
        path = self.write(tmp_path, content)
        self.check(["recover", "--config", small_config, "--adjacency", path],
                   "--adjacency", path, reason, capsys)

    @pytest.mark.parametrize("command", ["generate", "classify", "recover",
                                         "bench-spectral", "montecarlo", "table1"])
    def test_out_file(self, tmp_path, small_config, small_graph, command, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"config": SMALL, "algorithms": ["counting"],
                                    "trials": 1}))
        argv = {
            "generate": ["--config", small_config],
            "classify": ["--config", small_config],
            "recover": ["--config", small_config, "--adjacency", small_graph],
            "bench-spectral": ["--config", small_config, "--trials", "1"],
            "montecarlo": ["--spec", str(spec)],
            "table1": ["--n-grid", "1e4", "--examples", "1"],
        }[command]
        path = str(tmp_path / "missing" / "out")
        self.check([command, *argv, "--out", path], "--out", path,
                   "No such file or directory", capsys)


class TestTable1:
    def test_csv_file(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table1", "--n-grid", "1e4,1e5", "--examples", "1,2",
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(TABLE_COLUMNS)
        assert len(lines) == 5

    def test_stdout_mode(self, capsys):
        assert main(["table1", "--n-grid", "1e4", "--examples", "1"]) == 0
        assert "'example': 1" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, reason", [
        ("--n-grid", "1e4,abc", "could not convert string to float: 'abc'"),
        ("--n-grid", "1e4,inf", "cannot convert float infinity to integer"),
        ("--examples", "1,x", "invalid literal for int() with base 10: 'x'"),
    ])
    def test_malformed_list_exits_2(self, flag, value, reason, capsys):
        assert main(["table1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: {reason}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags, reason", [
        (["--eta", "-1"], "eta must be positive, got -1.0"),
        (["--examples", "1,7"], "example_id must be one of (1, 2, 3, 4, 5, 6), got 7"),
        # n = 5 is infeasible for preset 1, so no row reaches classify.
        (["--n-grid", "5", "--eta", "-1", "--examples", "1"],
         "eta must be positive, got -1.0"),
        (["--n-grid", "5", "--constant-C", "0", "--examples", "1"],
         "C must be positive, got 0.0"),
    ])
    def test_bad_input_exits_2(self, flags, reason, capsys):
        assert main(["table1", "--n-grid", "1e4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {reason}\n"
        assert captured.out == ""

    def test_nonpositive_n_gives_infeasible_rows(self, capsys):
        assert main(["table1", "--n-grid=-5,0", "--examples", "6"]) == 0
        out = capsys.readouterr().out
        assert "n must be >= 2, got -5" in out and "n must be >= 2, got 0" in out

    def test_n_beyond_int64_gives_infeasible_rows(self, capsys):
        assert main(["table1", "--n-grid", "1e19,1e20", "--examples", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("must lie in the int64 range") == 2
        assert captured.err == ""

    def test_reruns_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            main(["table1", "--n-grid", "1e4,1e5", "--examples", "1,5",
                  "--format", "json", "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for name in ("generate", "classify", "recover", "bench-spectral",
                     "montecarlo", "table1"):
            assert name in out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    # Each subcommand accepts only the flags its command reads.
    @pytest.mark.parametrize("command, flag, value", [
        ("generate", "--constant-C", "2"),
        ("generate", "--eta", "3"),
        ("generate", "--format", "json"),
        ("classify", "--seed", "1"),
        ("recover", "--constant-C", "2"),
        ("recover", "--eta", "3"),
        ("recover", "--step", "0"),
        ("recover", "--threshold", "1.5"),
        ("bench-spectral", "--constant-C", "2"),
        ("bench-spectral", "--eta", "3"),
        ("montecarlo", "--constant-C", "2"),
        ("montecarlo", "--eta", "3"),
        ("table1", "--seed", "1"),
        ("table1", "--gamma", "0.6"),
    ])
    def test_unread_flag_exits_2(self, tmp_path, small_config, small_graph,
                                 capsys, command, flag, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"config": SMALL, "algorithms": ["counting"],
                                    "trials": 1}))
        argv = [command] + {
            "generate": ["--config", small_config, "--out", str(tmp_path / "g")],
            "classify": ["--config", small_config],
            "recover": ["--config", small_config, "--adjacency", small_graph],
            "bench-spectral": ["--config", small_config, "--trials", "1"],
            "montecarlo": ["--spec", str(spec)],
            "table1": ["--n-grid", "1e4", "--examples", "1"],
        }[command]
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(argv + [flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.skipif(shutil.which("hsbmlab") is None,
                        reason="hsbmlab console script not installed")
    def test_console_script_installed(self):
        proc = subprocess.run(["hsbmlab", "--help"], capture_output=True)
        assert proc.returncode == 0
        assert b"montecarlo" in proc.stdout

    def test_console_script_entry_point(self):
        # Without an install there is no script on PATH; check what the
        # install would create: the declared entry point, and that the
        # module it names runs as a program.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["hsbmlab"] == "hsbmlab.cli:main"
        package_root = str(Path(hsbmlab.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "hsbmlab.cli", "--help"],
                              capture_output=True,
                              env={**os.environ, "PYTHONPATH": package_root})
        assert proc.returncode == 0
        assert b"montecarlo" in proc.stdout


# The package's public names, with the ten submodules that the computed
# __all__ also lists.  Adding or removing a public name edits this list.
PUBLIC_NAMES = [
    "ALGORITHMS", "Adjacency", "ConcentrationStats", "ConditionReport",
    "ConfigError", "DerivedStats", "EXAMPLE_IDS", "ExhaustiveResult",
    "ExperimentSpec", "GraphFormatError", "LocalSearchResult",
    "MAX_EXHAUSTIVE_N", "ModelConfig", "MonteCarloResult", "ObservedMatrix",
    "Partition", "Recovery", "RegimeCheck", "RegimeReport", "ResultRow",
    "SolverResult", "UNOBSERVED", "block_split_bound", "check_easy_clusterwise",
    "check_easy_global", "check_hard", "check_impossible", "check_simple",
    "chi_square_div", "classify", "clustering_matrix",
    "concentration_experiment", "convex", "counting", "derived_stats",
    "example6_reference_constants", "example_config", "exhaustive",
    "expected_adjacency", "generate", "graphio", "harness",
    "isolated_threshold", "local_search", "model", "objective",
    "pair_threshold", "partitions_equal", "presets", "project_box_sum",
    "project_nuclear_ball", "read_graph", "recover_convex", "recover_counting",
    "regimes", "round_solution", "run_monte_carlo", "run_table1", "run_trial",
    "sample_adjacency", "sample_observed", "solve_convex", "solve_exhaustive",
    "spectral", "stream_rng", "wilson_interval", "write_graph",
    "write_results", "write_table1",
]


def test_public_surface():
    assert sorted(hsbmlab.__all__) == PUBLIC_NAMES
