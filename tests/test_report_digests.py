"""CLI reports pinned to SHA-256 digests of their stdout.

Every suite and probe-q1 at seed 1 and size 2, plus one call of each engine
command.  A refactor must leave these reports byte for byte the same; a change
that alters a report on purpose records the new digest here and says why.

The reports were once printed indented, as json.dumps(report, sort_keys=True,
indent=2); they are now one line, json.dumps(report, sort_keys=True).  Only
the whitespace changed: each digest here is the SHA-256 of the indented
report re-encoded as json.dumps(json.loads(old), sort_keys=True) + "\n".
The four engine reports (betti, index, homology, cycles) then gained a
`field` key holding the field's name, "rat" here; each of their digests is
that of the previous report plus that one key.
"""

import hashlib
import json

import pytest

from koszul_lab.cli import main

IDEAL_M2 = '{"blocks": [2], "power": [2]}'
IDEAL_3 = '{"blocks": [3], "generators": [[2, 0, 0], [1, 1, 0], [0, 1, 2]]}'

DIGESTS = [
    (["verify", "check", "--seed", "1", "--size", "2"],
     "a20a30773fcfd7498c8efd4d265a3cd05fae3d13cbe19a5bcfbc1fc6d615dde1"),
    (["verify", "gen2", "--seed", "1", "--size", "2"],
     "f0dc2b71b11b1664db0eb553924cd0588b5bcc226d4841139cc68c7056c936b6"),
    (["verify", "greeny", "--seed", "1", "--size", "2"],
     "2d3c5ddf2e61c7a126f3e78fa0399efcee31639311427a983b9e81b10668f6fc"),
    (["verify", "maincyc", "--seed", "1", "--size", "2"],
     "70ee7ce0ffbe3a19c2dba8c909d3ee89cd3a91da08a79f68d6172147a1b838e4"),
    (["verify", "maps", "--seed", "1", "--size", "2"],
     "a39cd410c827f669e0ed3c3059c69787a75d6d8c3a557134d653c7a8064e03fa"),
    (["verify", "multi", "--seed", "1", "--size", "2"],
     "9b3591964bce35c97acee87e0035718a2ff77def66e8e084acf01a5919642c22"),
    (["verify", "multi2", "--seed", "1", "--size", "2"],
     "4ed26f9ce152d8d18f126694c9791cbac5a80195c0507ca8dee97d00b34df76c"),
    (["verify", "piper", "--seed", "1", "--size", "2"],
     "b804425242225e10b30651f2b42b6eee3208d4bf653d58722b15af237a8805da"),
    (["verify", "regb", "--seed", "1", "--size", "2"],
     "76490c8831051ea9692d8e76eb9122d91b1780ae84494801843786343575b1cf"),
    (["verify", "remark_b", "--seed", "1", "--size", "2"],
     "03beba99099e5e1e1a99d5be3c78b282e43be2dd171ddafb5f91dff125523a09"),
    (["verify", "sato", "--seed", "1", "--size", "2"],
     "fc5dcf1da433dd0ed72a22f74e1b9a1842c6a4cb237eb1f608efcdcc995fa715"),
    (["verify", "signs", "--seed", "1", "--size", "2"],
     "51cc5b264d31b00188e84c94ae64d6c52db0812f58c589c570da928c3bcf5dc9"),
    (["verify", "surge", "--seed", "1", "--size", "2"],
     "63a76be50f5466c885d706a6e5c6490fe2e9e2b929bc6dec0fb1179dfd7ad555"),
    (["verify", "thm1", "--seed", "1", "--size", "2"],
     "870293258d40e2b28afc5a3947dff5b25c73c07acd905e7e58f89704ff728bd2"),
    (["probe-q1", "--seed", "1", "--size", "2"],
     "1ea8779c06163df252bf98f024ad8c2bba74c64cc5a41c5253988f5f83aaa497"),
    (["betti", "--blocks", "3", "--c", "2", "--imax", "3"],
     "8284168978cddbe741d8c24e51c5e91a3c7e76405171a2fc16e821332b455d86"),
    (["index", "--blocks", "3", "--c", "2"],
     "0e03813d048831dd4389b8d99fef7a0369af916ef93d1106cce96df768360b31"),
    (["homology", "--ideal", IDEAL_M2, "-t", "1", "--degree", "4"],
     "ee2c4d6269b93499a7056205d85674d69bf3e7ef578ce011bad722ddc237937b"),
    (["cycles", "--ideal", IDEAL_3, "-t", "1", "--degree", "4"],
     "bb6b00acac51ac2add38dcc42f896ce6e5e472b9fd8ededc917a663feda4d81e"),
]


IDS = [a[1] if a[0] == "verify" else a[0] for a, _ in DIGESTS]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=IDS)
def test_report_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [a for a, _ in DIGESTS], ids=IDS)
def test_report_is_one_line_of_canonical_json(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
