"""Byte-level pins of the regime outputs and of the graph files.

Each case runs the command line (`hsbmlab.cli.main`) with --out and
compares the sha256 of the written file with a recorded digest, so a
refactor of the classification code must leave every byte in place:
column order, float reprs, JSON key order and line endings.  The same
holds for `generate` files, fully observed (gamma = 1) and partial, and
for what `recover` prints on them: its exit code and the sha256 of its
stdout and stderr, and for `montecarlo`'s CSV and JSON row files and its
stdout summary, which must not depend on the worker count.  The trend
table is pinned as CSV and JSON, and on a row whose note must be quoted;
`classify` and `bench-spectral` are pinned on stdout too.
`tests/data/frozen_regimes.json` compares the same numbers at 1e-12 and
would not see a last-bit change.  The digests were recorded with
numpy 2.4 on x86-64 Linux; a different libm may move the last bits of
the logarithms and powers the presets use.

JSON stays at n <= 10^5: `RegimeReport.to_json` lists every cluster, so it
grows with the cluster count.
"""

import hashlib
import json

import pytest

from hsbmlab.cli import main
from hsbmlab.presets import example6_reference_constants

CLASSIFY_DIGESTS = {
    (1, 10**4, "csv"): "4f56d387b8467215f1636800fc92880fef4d78b349caf8154d8d07692e47a73c",
    (1, 10**4, "json"): "294b3e3a794cf5432b0351d7c06bb8bf26495de801c7374e9c625a2912c1bf00",
    (1, 10**5, "csv"): "bd770830b873b8a2014ba17b26c154c478c4ae29a7aa39b026bf11981e664f4e",
    (1, 10**5, "json"): "ca0161031b19898f2db3a3c967e98c86a636a760713c1c91c4a11bc625dd1c48",
    (2, 10**4, "csv"): "ac26a0c10ec3581e3aed4741501641b17fb1edb1a060a0bd48919fdd82b1eb14",
    (2, 10**4, "json"): "cce8cf97b6345caab71c89c3ac0795d34c4989af5a71ecccc01b3d82f5151ead",
    (2, 10**5, "csv"): "82f74fb0dac64db84c0ac6cb9a9a27617b46c67c1f3850883778c973bd5c957a",
    (2, 10**5, "json"): "69bb15ccce53950e0e357f24c79d832726fd94f4f2af922666c7e23e7e9c572d",
    (3, 10**4, "csv"): "90f192bd909ae471c9d5e0073105227134fe9103f961ef62da8fb75bbeb71440",
    (3, 10**4, "json"): "4edbb4ec5354f9795bcc67d4edf2dc3be01dc445024c3a5a9316ff2d9e3955b5",
    (3, 10**5, "csv"): "9a0f238a1cfa78bb31432c28e30d36aad2ee25f7eab8d52197868790c5188fed",
    (3, 10**5, "json"): "be7a63141ee861738fbee508b2d3792117c57c9d55493b6df84a065a6139d802",
    (4, 10**4, "csv"): "73df8f11d69bf415b852db4dbe85050f117293520c2286a90c430e812f916c2b",
    (4, 10**4, "json"): "4913a419c5320013b6cd7e394e596f6c12c67b6455ad54c33962187c99f6e069",
    (4, 10**5, "csv"): "b472f76b8575c79ea54c8df7d269bfb76b5115c940ec0d0fb3a2a70e9bc7036c",
    (4, 10**5, "json"): "8e2fa56a0e6b22c9530bf59b9c9a5c36a956f81442cfaebc55d6b624283c7cef",
    (5, 10**4, "csv"): "f8a21f3433a8ebbc49242754cea82a31c1d8dedfcd71f5574865f6bbb81994c5",
    (5, 10**4, "json"): "eeaf6a0210ba1f12e9262904f647a199b62f250fd1881a2a1d7cd8d5e80abdcb",
    (5, 10**5, "csv"): "a8984dbfdde6baf22995f004b4b5592bb5168c04449eccfd9cfde9fa3bb6a514",
    (5, 10**5, "json"): "443930d0ba57b0e95d706e9ce14db25cf2f590e9e9a32e28c3e49058ecbaa58f",
    (6, 10**4, "csv"): "257fd70768b9e0481c15876e9e8cb58421acbefc8872b66d2cee88dee29222c3",
    (6, 10**4, "json"): "d658762fcde4bd9d23163d598e1daf3eb1ddd12fc4d1e7f88c62942a39792216",
    (6, 10**5, "csv"): "e46a61e7c5663f597a4850b3eed43cc4176d1dacecb9d4d16260d95409be09b9",
    (6, 10**5, "json"): "4fbcbb1955f275170695c2f852a91db931808612ff1e4d41c60b028dc96a5ef5",
}

TABLE1_GRID = "1e4,1e5,1e6,1e7,1e8"
TABLE1_DIGEST = "03e82e462b22fe7dd2308f334a927f753228fd0b8578927f24d74a25ee371959"


def written_digest(tmp_path, argv) -> str:
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("example, n, fmt", sorted(CLASSIFY_DIGESTS))
def test_classify_bytes(tmp_path, example, n, fmt):
    argv = ["classify", "--example", str(example), "--n", str(n), "--format", fmt]
    if example == 6:
        for name, value in example6_reference_constants(n).items():
            argv += ["--constant", f"{name}={value!r}"]
    assert written_digest(tmp_path, argv) == CLASSIFY_DIGESTS[example, n, fmt]


def test_table1_bytes(tmp_path):
    digest = written_digest(tmp_path, ["table1", "--n-grid", TABLE1_GRID])
    assert digest == TABLE1_DIGEST


# The trend table as JSON (bare NaN tokens included), and a CSV row whose
# note holds commas, so csv.writer must quote that cell.
TABLE1_JSON_DIGEST = "2284378a1ab3febd43fd412307f3743572f21c374704f8b2f087eb97f3bc25ca"
TABLE1_QUOTED_DIGEST = "d2db2cb94095ecde8a55537fa81bbea93967a4da8724df330cceb3592fe23eab"


def test_table1_json_bytes(tmp_path):
    digest = written_digest(tmp_path, ["table1", "--n-grid", TABLE1_GRID,
                                       "--format", "json"])
    assert digest == TABLE1_JSON_DIGEST


def test_table1_quoted_note_bytes(tmp_path):
    out = tmp_path / "out"
    assert main(["table1", "--n-grid", "1e19", "--examples", "1",
                 "--out", str(out)]) == 0
    assert b',"example 1 infeasible at n = ' in out.read_bytes()
    assert sha256(out.read_bytes()) == TABLE1_QUOTED_DIGEST


@pytest.mark.parametrize("example, n, fmt",
                         sorted(key for key in CLASSIFY_DIGESTS if key[1] == 10**4))
def test_classify_stdout_matches_file(capsys, example, n, fmt):
    # Without --out, classify prints the bytes it would write.
    argv = ["classify", "--example", str(example), "--n", str(n), "--format", fmt]
    if example == 6:
        for name, value in example6_reference_constants(n).items():
            argv += ["--constant", f"{name}={value!r}"]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == CLASSIFY_DIGESTS[example, n, fmt]


# Two clusters and 10 isolated nodes on 60 nodes; preset 3 at n = 200 has
# clusters of 3 beside clusters of 100.
SMALL_CONFIG = {"n": 60, "q": 0.05, "clusters": [[30, 0.9], [20, 0.8]]}
GRAPH_SOURCES = {
    "small": ["--config", "{config}"],
    "example3": ["--example", "3", "--n", "200"],
}
GENERATE_DIGESTS = {
    ("small", "1", 3):
        "6ea3a1a4299ec58836a036a1caf0cd0ac26f778f5a2da9c0f8da48d791ffda9b",
    ("small", "1", 7):
        "e3661508f31e7c07448d3115c4c3fb5b753511f18fd86e2c6f5c0bea2ce9c35c",
    ("small", "0.6", 3):
        "dc90446d67282f20614982db1335693dac5f77a51a1d00b21005aad14f25b758",
    ("small", "0.6", 7):
        "3dca153752a68e376a9703acfae2ad33a79eccd4cbe0f47bffec00595e1bebe4",
    ("example3", "1", 0):
        "285d39a96faed345d2820c91c682533569bf455042f7f8c40f428a6a20e241b0",
    ("example3", "1", 1):
        "0cdad256e5baa98b6ca33d414ebe9e435c18188004d972ae5a2e295678782936",
    ("example3", "0.6", 0):
        "5fff2d36acc59daa71da8de788e5152491f1d00d9049a28a197331bc170ef8ad",
    ("example3", "0.6", 1):
        "ee7ae2d8a77c8e5b47c5e7137edf6ed672852e287a6c5057ec2efab94eed42a9",
}
# (source, gamma, seed, algorithm) -> (exit code, stdout sha256, stderr sha256)
EMPTY = hashlib.sha256(b"").hexdigest()
RECOVER_DIGESTS = {
    ("small", "1", 3, "counting"): (0,
        "53f812eeef22eef85325d39914b7ce47b65e6cdd7f41cb30390e7680c3e3446a",
        EMPTY),
    ("small", "1", 3, "convex"): (0,
        "53f812eeef22eef85325d39914b7ce47b65e6cdd7f41cb30390e7680c3e3446a",
        EMPTY),
    ("small", "1", 7, "counting"): (2,
        EMPTY,
        "9057333dc959b85e020a9640522efc9199a516f5a942224827f54af7da32ecdf"),
    ("small", "1", 7, "convex"): (0,
        "53f812eeef22eef85325d39914b7ce47b65e6cdd7f41cb30390e7680c3e3446a",
        EMPTY),
    ("small", "0.6", 3, "counting"): (2,
        EMPTY,
        "c004225d0cc5b393173cf6f275df6ecb829f2c4f3b257027d0a9f930f6d64839"),
    ("small", "0.6", 3, "convex"): (0,
        "53f812eeef22eef85325d39914b7ce47b65e6cdd7f41cb30390e7680c3e3446a",
        EMPTY),
    ("small", "0.6", 7, "counting"): (2,
        EMPTY,
        "3f605287519d11e21c96aa6387f29e7545b18faf7767386c84fb8cabe4cc956e"),
    ("small", "0.6", 7, "convex"): (0,
        "53f812eeef22eef85325d39914b7ce47b65e6cdd7f41cb30390e7680c3e3446a",
        EMPTY),
    ("example3", "1", 0, "counting"): (2,
        EMPTY,
        "3888a706cf76ea94708fcead0ca7cc7070ac99b6cf64054bc57552786cfbcfe3"),
    ("example3", "1", 1, "counting"): (2,
        EMPTY,
        "57d0761997400a775fb73395d6d9204cd66013d412b99da2c7893f57806b98f0"),
    ("example3", "0.6", 0, "counting"): (2,
        EMPTY,
        "5b97e0f6ad27a4e9844a5858392dbc740dd300ac18c7ef79d58849dbcef16c9c"),
    ("example3", "0.6", 1, "counting"): (2,
        EMPTY,
        "69576ec364325baacc1f8769702479d1593637d61b9086f7c9dfc83141e3044d"),
}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def generated_graph(tmp_path, source, gamma, seed):
    """Run `generate` for one draw; returns (the source"s flags, file path)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    flags = [arg.format(config=config) for arg in GRAPH_SOURCES[source]]
    flags += ["--gamma", gamma]
    graph = tmp_path / "graph.txt"
    assert main(["generate", *flags, "--seed", str(seed), "--out", str(graph)]) == 0
    return flags, graph


@pytest.mark.parametrize("source, gamma, seed", sorted(GENERATE_DIGESTS))
def test_generate_bytes(tmp_path, source, gamma, seed):
    _, graph = generated_graph(tmp_path, source, gamma, seed)
    assert sha256(graph.read_bytes()) == GENERATE_DIGESTS[source, gamma, seed]


@pytest.mark.parametrize("source, gamma, seed, algorithm", sorted(RECOVER_DIGESTS))
def test_recover_output(tmp_path, capsys, source, gamma, seed, algorithm):
    flags, graph = generated_graph(tmp_path, source, gamma, seed)
    capsys.readouterr()
    code = main(["recover", *flags, "--algorithm", algorithm,
                 "--adjacency", str(graph)])
    captured = capsys.readouterr()
    assert (code, sha256(captured.out), sha256(captured.err)) == \
        RECOVER_DIGESTS[source, gamma, seed, algorithm]


# An 8-node config of three pairs that the exhaustive scan affords, and on
# which most draws tie.  Between them the cases give every failure kind:
# small at gamma 1 none and counting; small at gamma 0.6 with max_iter 3
# nonconvergence; tiny rounding, counting and tie.
TINY_CONFIG = {"n": 8, "q": 0.2, "clusters": [[2, 0.3], [2, 0.3], [2, 0.3]]}
THREE = ["convex", "counting", "local-search"]
FOUR = ["convex", "exhaustive", "counting", "local-search"]
MONTECARLO_SPECS = {
    ("small", "1"): {"config": SMALL_CONFIG, "algorithms": THREE, "trials": 4},
    ("small", "0.6"): {"config": SMALL_CONFIG, "algorithms": THREE, "trials": 4,
                       "solver": {"max_iter": 3}},
    ("tiny", "1"): {"config": TINY_CONFIG, "algorithms": FOUR, "trials": 4},
    ("tiny", "0.6"): {"config": TINY_CONFIG, "algorithms": FOUR, "trials": 4},
}
# (config, gamma) -> (CSV sha256, JSON sha256, stdout sha256)
MONTECARLO_DIGESTS = {
    ("small", "1"): (
        "2455d7902c68ad976f2b045cc2b6ea64436adb664728f576177432be8af7f5d3",
        "07887d8686e9491a4cb6efe17824fe8712b2076d7525f5a1936e5bfb1d323a9f",
        "c2a9703a965fa9a1dc3dd79cf05440e24fa9b0c1c12b313d0b0979aef29a1502"),
    ("small", "0.6"): (
        "8185fca207049b30d71aac42bbab1e9c69daf36c653b0a34acc5344247aaeb9a",
        "78c48a026e5289fa8286b4d8fe2aa59fabe47b98fe714a167ad877d770dcdc8f",
        "e15ec0ed582efe274ed61bc93b70ed949d856ac65d352ea4dcb590261ddf54b3"),
    ("tiny", "1"): (
        "49932c954ac2b75c53154b544351e513f0d233bc3a642bbf07095c775176a2a8",
        "b01185d1dd9bde6b2ca2b66e82dd68f57ea2e1db7039f844326afc1550a7298e",
        "6aed4c14290061099af83e976a0ac67b358253a1375b8ebd9a62ec00f13f578c"),
    ("tiny", "0.6"): (
        "cecc016be494aada5effc96bfbfa1e6d1bea601c3975c37ebef6d3f95f363d9a",
        "404e7121bab62cbf332d2f0252770f92bcdf28017545d3adfdca0466eb8c0719",
        "dcb7a8dcf5bf75e9586d9c20b589a7798f9b8965acae58e5ed10ca8e985b1e87"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("source, gamma", sorted(MONTECARLO_DIGESTS))
def test_montecarlo_output(tmp_path, capsys, source, gamma, workers):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(MONTECARLO_SPECS[source, gamma]))
    files, stdout = [], set()
    for fmt in ("csv", "json"):
        out = tmp_path / f"rows.{fmt}"
        assert main(["montecarlo", "--spec", str(spec), "--gamma", gamma,
                     "--workers", workers, "--format", fmt, "--out", str(out)]) == 0
        files.append(sha256(out.read_bytes()))
        stdout.add(capsys.readouterr().out)
    assert len(stdout) == 1
    assert (*files, sha256(stdout.pop())) == MONTECARLO_DIGESTS[source, gamma]


# bench-spectral on the small config, five trials from seed 3; the CSV
# cells are float reprs, as in every other CSV the package writes.
# gamma -> (CSV sha256, JSON sha256)
BENCH_SPECTRAL_DIGESTS = {
    "1": ("d85c2160b8fe5accbf40870358bff55fe4032a24e0c622b3d8cb3544c9cf8f31",
          "76c8b5856aefe6344bef5e9df9beb49d41c2542f6fc26133c21e063a98ffb75c"),
    "0.5": ("bc773d8c87890674aa601314ebde45bfef2d1ceb051921fe3e05ebc36e9feb4f",
            "6ebf064c0eb4fceea9eee7c9754279a73eeb9225d20c13510266ac7ea1fa6e69"),
}


@pytest.mark.parametrize("gamma", sorted(BENCH_SPECTRAL_DIGESTS))
def test_bench_spectral_bytes(tmp_path, gamma):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    argv = ["bench-spectral", "--config", str(config), "--gamma", gamma,
            "--trials", "5", "--seed", "3"]
    digests = tuple(written_digest(tmp_path, [*argv, "--format", fmt])
                    for fmt in ("csv", "json"))
    assert digests == BENCH_SPECTRAL_DIGESTS[gamma]


# bench-spectral's CSV on stdout, followed by its ratios line.
BENCH_SPECTRAL_STDOUT_DIGESTS = {
    "1": "edf4f449ff64b9d7fe22b81bb791304fc69dbcc2a51da03d4e477966aad31c09",
    "0.5": "d043ade9f31dd2aa22e0f810f471ffbb697267857acd551be4ead0bfcbbeb2c1",
}


@pytest.mark.parametrize("gamma", sorted(BENCH_SPECTRAL_STDOUT_DIGESTS))
def test_bench_spectral_stdout(tmp_path, capsys, gamma):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["bench-spectral", "--config", str(config), "--gamma", gamma,
                 "--trials", "5", "--seed", "3"]) == 0
    assert sha256(capsys.readouterr().out) == BENCH_SPECTRAL_STDOUT_DIGESTS[gamma]
