"""CLI reports pinned to SHA-256 digests of their stdout.

Every suite and probe-q1 at seed 1 and size 2, plus one call of each engine
command.  A refactor must leave these reports byte for byte the same; a change
that alters a report on purpose records the new digest here and says why.
"""

import hashlib

import pytest

from koszul_lab.cli import main

IDEAL_M2 = '{"blocks": [2], "power": [2]}'
IDEAL_3 = '{"blocks": [3], "generators": [[2, 0, 0], [1, 1, 0], [0, 1, 2]]}'

DIGESTS = [
    (["verify", "check", "--seed", "1", "--size", "2"],
     "b3c6ab1b9cb895d805da871b9125b56b0a9f878f23ed3f14f12c9a2f834b65f9"),
    (["verify", "gen2", "--seed", "1", "--size", "2"],
     "4b6ad1bab21ae6f5ab5333b85d379cc801d46af96c79fc2d7de10bcf25f146a4"),
    (["verify", "greeny", "--seed", "1", "--size", "2"],
     "1b35674cdf3234b13ef73977b75c4046cbe54b54206299cecec58806626d0515"),
    (["verify", "maincyc", "--seed", "1", "--size", "2"],
     "f61aff9655a14b1bac81da544674709d61910ff5ea26d85ee46a02be0615f60b"),
    (["verify", "maps", "--seed", "1", "--size", "2"],
     "ccdc18b86b3cdd0068fa067bff18f5e9b72b8b51c70723139a9cf7ad754d250c"),
    (["verify", "multi", "--seed", "1", "--size", "2"],
     "aa9d2b1ef23151bb5c201df082f4f224c1c7c1fc818993c5358facc92dc899f6"),
    (["verify", "multi2", "--seed", "1", "--size", "2"],
     "08abe000f4e73e8f5bf528a7178fff06c49f3a254c9528ff14e7b262fc9f3a47"),
    (["verify", "piper", "--seed", "1", "--size", "2"],
     "6865858e69d01c733977296901906048e6f66a6e428f9b67eb197cca0d4ee058"),
    (["verify", "regb", "--seed", "1", "--size", "2"],
     "2b261f10a0ede863668c458ddd69a27485cb4c07ed1659bc0314ad91e18db844"),
    (["verify", "remark_b", "--seed", "1", "--size", "2"],
     "81057b6de883ad4692bef975a6ee375eba43fd61658a18b7a438766b2121cec9"),
    (["verify", "sato", "--seed", "1", "--size", "2"],
     "d3933fb455252628af12b194e24d3d159ea91a512de00c7e4ea6a014d6a958fa"),
    (["verify", "signs", "--seed", "1", "--size", "2"],
     "63bc1375fa53eb201dd1ec34d5359a7af6341f2050ff95aaf51d399e5a0c683a"),
    (["verify", "surge", "--seed", "1", "--size", "2"],
     "5c3f7998a96414ec3084de4e9e27b40f67f4d52f88d6a211e9cb50a58f083f25"),
    (["verify", "thm1", "--seed", "1", "--size", "2"],
     "be7f10827921d1eeceda4b62f490950705b066e3c8fcdd0120931c9a1b0a47c4"),
    (["probe-q1", "--seed", "1", "--size", "2"],
     "b292da4c81445aea0d7ecdd8fb71e11d81d5fdc6deaed82edde15de2faa2028e"),
    (["betti", "--blocks", "3", "--c", "2", "--imax", "3"],
     "630e49d6f1bf8379c4b1f7962633046bcd92000be5d7886cfb6756a64d275e1f"),
    (["index", "--blocks", "3", "--c", "2"],
     "e2ed2e66b38a192e93b80eebe195aa1befbe09b3f5e1a1ca64556ed6d3d4e20a"),
    (["homology", "--ideal", IDEAL_M2, "-t", "1", "--degree", "4"],
     "2cedffd066466a0e00f3812f308ea9845f364e14457a2b3b47792169ad23684a"),
    (["cycles", "--ideal", IDEAL_3, "-t", "1", "--degree", "4"],
     "d40b54bc4fd60d23189ed24df1d2364f8dfeea97223cee164c5e814e17e43886"),
]


@pytest.mark.parametrize(
    "argv, digest", DIGESTS, ids=[a[1] if a[0] == "verify" else a[0] for a, _ in DIGESTS]
)
def test_report_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
