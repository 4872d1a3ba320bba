"""Byte-level pins of the regime outputs.

Each case runs the command line (`hsbmlab.cli.main`) with --out and
compares the sha256 of the written file with a recorded digest, so a
refactor of the classification code must leave every byte in place:
column order, float reprs, JSON key order and line endings.
`tests/data/frozen_regimes.json` compares the same numbers at 1e-12 and
would not see a last-bit change.  The digests were recorded with
numpy 2.4 on x86-64 Linux; a different libm may move the last bits of
the logarithms and powers the presets use.

JSON stays at n <= 10^5: `RegimeReport.to_json` lists every cluster, so it
grows with the cluster count.
"""

import hashlib

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
