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
     "568a92bfb5a456391fe72a31fc0b3f2928a5a990c7302e4b03d4aacf6d1b622a"),
    (["verify", "gen2", "--seed", "1", "--size", "2"],
     "337fa82a6a789b7c4692a1dc349136f1fc8ace530a36f0383a8ae55ee26db494"),
    (["verify", "greeny", "--seed", "1", "--size", "2"],
     "15f7711ea5c8e4119f1a586811e88fc173ae53eea91500ec4cae121035f1d3a8"),
    (["verify", "maincyc", "--seed", "1", "--size", "2"],
     "3f98b28531c4e39f1d46f613745b4f1c77df2714064cc330700628c956ac809a"),
    (["verify", "maps", "--seed", "1", "--size", "2"],
     "3718c7e8248ba52d479ec9490a9321d79a50cadf0901d6ae833f19600d8f6f90"),
    (["verify", "multi", "--seed", "1", "--size", "2"],
     "b0a109abcb0e382789390e38ebc43ca30e28d89d9420c4c95add52dba045f8d5"),
    (["verify", "multi2", "--seed", "1", "--size", "2"],
     "d2278690959b7bb12433005e6f4554290411ef11407c91c9429a06f426ae60b3"),
    (["verify", "piper", "--seed", "1", "--size", "2"],
     "617df63c2f9474428c7c2f8dd7f1c055817970d391e7e3f17eaf55da4f67abe6"),
    (["verify", "regb", "--seed", "1", "--size", "2"],
     "2ea8579a6e0f2bdc404341a87c61dca98fac03e2451f7054049a05d3871abb54"),
    (["verify", "remark_b", "--seed", "1", "--size", "2"],
     "45946e53ad97a7c7179be4101215814407b453e915b2b1ea2f53a044a391258e"),
    (["verify", "sato", "--seed", "1", "--size", "2"],
     "db4b3e765777c4fefc33915f6ca021bf79477d0e29f5953e7d02911bb4ac8e6d"),
    (["verify", "signs", "--seed", "1", "--size", "2"],
     "5fa5a09d2f6adf9a86c3ac37a62a04f78eb32121acec8f95a234db56dc1b818d"),
    (["verify", "surge", "--seed", "1", "--size", "2"],
     "cc370e43fa1bd7cc29fb92b884dedced6efa3c1fa404ff10a87f1d85a7431760"),
    (["verify", "thm1", "--seed", "1", "--size", "2"],
     "c1d09ba300b87a30a2bae23f86f9ca53404eefa5eb910e9360914990aa4f6fe3"),
    (["probe-q1", "--seed", "1", "--size", "2"],
     "2b545856d90c34999f174474bf090985cb6b4a0176c473f42c200fb0ba8078e3"),
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
