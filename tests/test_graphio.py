"""Edge-list file round-trips and format validation."""

import io

import numpy as np
import pytest

from hsbmlab import (
    Adjacency,
    GraphFormatError,
    ModelConfig,
    ObservedMatrix,
    UNOBSERVED,
    read_adjacency,
    read_graph,
    read_observed,
    sample_adjacency,
    sample_observed,
    write_adjacency,
    write_observed,
)


def roundtrip_adjacency(adj, tmp_path):
    path = tmp_path / "g.txt"
    write_adjacency(path, adj)
    return read_adjacency(path)


class TestAdjacencyRoundTrip:
    def test_small(self, tmp_path):
        m = np.array(
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8
        )
        again = roundtrip_adjacency(Adjacency(m), tmp_path)
        assert np.array_equal(again.matrix, m)

    def test_empty_graph(self, tmp_path):
        again = roundtrip_adjacency(Adjacency(np.zeros((4, 4), np.int8)), tmp_path)
        assert again.n == 4 and int(again.matrix.sum()) // 2 == 0

    def test_sampled(self, tmp_path):
        cfg = ModelConfig(20, [(10, 0.8), (8, 0.5)], 0.1)
        adj = sample_adjacency(cfg, cfg.planted_partition(), seed=1)
        again = roundtrip_adjacency(adj, tmp_path)
        assert np.array_equal(again.matrix, adj.matrix)

    def test_write_bytes_deterministic(self):
        cfg = ModelConfig(15, [(8, 0.7)], 0.1)
        adj = sample_adjacency(cfg, cfg.planted_partition(), seed=2)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_adjacency(buf, adj)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        head = bufs[0].splitlines()[0].split()
        assert int(head[0]) == 15 and int(head[1]) == int(adj.matrix.sum()) // 2


class TestObservedRoundTrip:
    def test_small(self, tmp_path):
        v = np.array(
            [[0, 1, UNOBSERVED], [1, 0, 0], [UNOBSERVED, 0, 0]], dtype=np.int8
        )
        path = tmp_path / "o.txt"
        write_observed(path, ObservedMatrix(v))
        again = read_observed(path)
        assert np.array_equal(again.values, v)

    def test_sampled(self, tmp_path):
        cfg = ModelConfig(20, [(10, 0.8), (8, 0.5)], 0.1, gamma=0.5)
        obs = sample_observed(cfg, cfg.planted_partition(), seed=3)
        path = tmp_path / "o.txt"
        write_observed(path, obs)
        assert np.array_equal(read_observed(path).values, obs.values)

    def test_unobserved_pairs_not_written(self):
        v = np.full((3, 3), UNOBSERVED, dtype=np.int8)
        np.fill_diagonal(v, 0)
        v[0, 1] = v[1, 0] = 1
        buf = io.StringIO()
        write_observed(buf, ObservedMatrix(v))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "3 1"
        assert lines[1] == "0 1 1"


class TestAutoDetect:
    def test_adjacency(self):
        adj = read_graph(io.StringIO("3 1\n0 2\n"))
        assert isinstance(adj, Adjacency)
        assert adj.matrix[0, 2] == 1

    def test_observed(self):
        obs = read_graph(io.StringIO("3 2\n0 2 1\n0 1 0\n"))
        assert isinstance(obs, ObservedMatrix)
        assert obs.values[0, 2] == 1
        assert obs.values[0, 1] == 0
        assert obs.values[1, 2] == UNOBSERVED

    def test_pairless_file_is_adjacency(self):
        assert isinstance(read_graph(io.StringIO("2 0\n")), Adjacency)


class TestFormatErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty
            "3\n",  # short header
            "a b\n",  # non-integer header
            "0 0\n",  # n < 1
            "3 2\n0 1\n",  # promised 2 pairs, got 1
            "3 1\n0 3\n",  # index out of range
            "3 1\n1 1\n",  # self-loop
            "3 1\n0 1 1\n",  # wrong arity for adjacency
        ],
    )
    def test_bad_adjacency(self, text):
        with pytest.raises(GraphFormatError):
            read_adjacency(io.StringIO(text))

    @pytest.mark.parametrize(
        "text",
        [
            "3 1\n0 1\n",  # wrong arity for observed
            "3 1\n0 1 2\n",  # value outside {0, 1}
            "3 1\n0 3 1\n",  # index out of range
        ],
    )
    def test_bad_observed(self, text):
        with pytest.raises(GraphFormatError):
            read_observed(io.StringIO(text))

    def test_graph_format_error_is_value_error(self):
        assert issubclass(GraphFormatError, ValueError)
