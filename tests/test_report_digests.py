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
     "01d38495c9d280dc65755f2fec4bc0aba845cc36cdd67dfc539b3195fc9af7de"),
    (["verify", "gen2", "--seed", "1", "--size", "2"],
     "2eccd6b1e7fab3a8a3025ed11fb97b475e663d9e173023d771aa8e2b0321d0a8"),
    (["verify", "greeny", "--seed", "1", "--size", "2"],
     "93f043406e0191aad23d7d393ad2377f0e43ce85507bb2eea2af10efc9906a3b"),
    (["verify", "maincyc", "--seed", "1", "--size", "2"],
     "92b673c540eef216bc098e9aa94f78c954f9a6cbc3df2ac34f09e3f98f3c8c7a"),
    (["verify", "maps", "--seed", "1", "--size", "2"],
     "b40db03767bf867465d26575982cebf612099c1552509df14beaf733219a62d2"),
    (["verify", "multi", "--seed", "1", "--size", "2"],
     "52f86484413fd8a6d11ad76ca20e64c61d44d8c3aae1646913d0c8f14f896587"),
    (["verify", "multi2", "--seed", "1", "--size", "2"],
     "fb550353db9880eb8756c0b5d048f2242422d2e268f4bb21c8b0556347ce507a"),
    (["verify", "piper", "--seed", "1", "--size", "2"],
     "1881074f54d49e98c0983add86fc2bc3538c1a37bfbdd8f019440fc39fdb93bf"),
    (["verify", "regb", "--seed", "1", "--size", "2"],
     "858534884cf72b652649cc449c1d0eef539bacf495ffe53e4a6ca22e9eb4776f"),
    (["verify", "remark_b", "--seed", "1", "--size", "2"],
     "9894b77535ad8125234370a8d8eacf760c5bb112e7095d238798a83e59747e22"),
    (["verify", "sato", "--seed", "1", "--size", "2"],
     "00600c584122c208843d6328db8d36364d340747d570431ec7dc6df720cdf017"),
    (["verify", "signs", "--seed", "1", "--size", "2"],
     "977a876299448780af72daf79fcefde223ae2fdb18aed082f2be13437954dfe3"),
    (["verify", "surge", "--seed", "1", "--size", "2"],
     "096ae1d2a194ad3d793d9a30f7dce2c3be7f4b4cc19ad2edc579c37ef9ac99a9"),
    (["verify", "thm1", "--seed", "1", "--size", "2"],
     "1b7534b617b89f41454c7406d993849484370f8fcd23463909cd73e7aee2789f"),
    (["probe-q1", "--seed", "1", "--size", "2"],
     "cb1f417e16f325dcf37ac45758545fc1ac873b8be2569b1e85719f13244939a9"),
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
