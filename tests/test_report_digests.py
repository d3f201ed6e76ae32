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
that of the previous report plus that one key.  The 14 suite reports and
probe-q1 then named their default field "rat", the name `--field` takes,
in place of "auto": each of their digests is that of the previous report
with "field": "auto" replaced by "field": "rat", nothing else changed.
"""

import hashlib
import json

import pytest

from koszul_lab.cli import main

IDEAL_M2 = '{"blocks": [2], "power": [2]}'
IDEAL_3 = '{"blocks": [3], "generators": [[2, 0, 0], [1, 1, 0], [0, 1, 2]]}'

DIGESTS = [
    (["verify", "check", "--seed", "1", "--size", "2"],
     "06e2c2f1c63e7247935af7e577f80eed593ea0ea076ea4c305d2a1a4a13d6d33"),
    (["verify", "gen2", "--seed", "1", "--size", "2"],
     "b2335da25f29c29e9f4002aada88abf0770ff43a80bb1b6da7336f23450d7dbb"),
    (["verify", "greeny", "--seed", "1", "--size", "2"],
     "bccc2f3016fb43828ce984ca8fbe240c2bc5dd4d74ac9f47190d01d6571df3ff"),
    (["verify", "maincyc", "--seed", "1", "--size", "2"],
     "d44f4f229632ea4dc84a65092c98cf79fb26d1fe9cc5ca1c93d4456ddcc015aa"),
    (["verify", "maps", "--seed", "1", "--size", "2"],
     "018f695d65e6cf987f4c6f8f1532d0f22c9ae2255bb717a3e3882a61b992b4de"),
    (["verify", "multi", "--seed", "1", "--size", "2"],
     "fad77bdfc63695d29dfde9679c90cd187940fed82c0bd41097049f26fc37e6f5"),
    (["verify", "multi2", "--seed", "1", "--size", "2"],
     "871c72b54e4fc9e7be85610e22aff3b37f1ef92b8025224a996aa4b5f49fc628"),
    (["verify", "piper", "--seed", "1", "--size", "2"],
     "8a0ff3f8ee9b056dd99fecf4df0b4e72b74ac435d5869cb8341089c643f8875f"),
    (["verify", "regb", "--seed", "1", "--size", "2"],
     "ecb7165b589f4e61a69f6f2ee04f1b6244f62c002e7f7a617b74f1cee785be12"),
    (["verify", "remark_b", "--seed", "1", "--size", "2"],
     "5242381c72badce0a9136cd290825f972311a8e38922652b115fc5609366d7b1"),
    (["verify", "sato", "--seed", "1", "--size", "2"],
     "5875871f9aa170376707a817b6f6ad4322d87052e28cf1f7a2f513c519445ebf"),
    (["verify", "signs", "--seed", "1", "--size", "2"],
     "745bff2e41e03296212af94c09fadae30cb157ee66d8395e9c5b7c23a0198649"),
    (["verify", "surge", "--seed", "1", "--size", "2"],
     "731a9c2e83daa75c432c65870172b259e36e01c0f0f6a291e296753b373c6f32"),
    (["verify", "thm1", "--seed", "1", "--size", "2"],
     "1021a263c384d5b5c73db5a85d78374b0922a5b9d280e43026e49ee6f9a186ba"),
    (["probe-q1", "--seed", "1", "--size", "2"],
     "589c236f84722d62deb08b1f8d501d6ff1dc20b140daed6ab1a87cf64ed73934"),
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
