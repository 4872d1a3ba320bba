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
        graph = read_graph(out)
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
        assert isinstance(read_graph(out), ObservedMatrix)

    def test_preset_source(self, tmp_path):
        out = tmp_path / "preset.txt"
        assert main(["generate", "--example", "1", "--n", "100",
                     "--out", str(out)]) == 0
        assert read_graph(out).matrix.shape == (100, 100)

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

    def test_preset_with_constant_override(self, capsys):
        assert main(["classify", "--example", "2", "--n", "1000",
                     "--constant", "c=2.0"]) == 0
        assert capsys.readouterr().out.strip() != ""


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
        assert "not_clique" in captured.err
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
        assert "nonconvergence" in capsys.readouterr().err

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
        assert capsys.readouterr().err.strip() != ""

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
        ("--threshold", "1.5", "rounding_threshold"),
        ("--max-iter", "0", "max_iter"),
        ("--step", "0", "step"),
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
        unobserved = int((read_graph(graph).values == -1).sum()) // 2
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

    def test_former_solver_field_exits_2(self, tmp_path, capsys):
        # The change-test tolerance is a constant, not a solver option.
        path = tmp_path / "tol_spec.json"
        path.write_text(json.dumps({
            "config": SMALL,
            "algorithms": ["convex"],
            "trials": 1,
            "solver": {"tol_change": 1e-9},
        }))
        assert main(["montecarlo", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: solver options: ")
        assert "tol_change" in captured.err
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

    def test_nonpositive_n_gives_infeasible_rows(self, capsys):
        assert main(["table1", "--n-grid=-5,0", "--examples", "6"]) == 0
        out = capsys.readouterr().out
        assert "n must be >= 2, got -5" in out and "n must be >= 2, got 0" in out

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
