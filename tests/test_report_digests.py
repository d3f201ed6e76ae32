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

Seed 1 at size 2 draws two cases per suite.  The regularity suites, remark_b
and probe-q1 are also pinned at seeds 2 and 3 at their default size (50
cases, 20 for probe-q1), so that a changed order of random draws anywhere in
a suite changes a digest.
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

DEFAULT_SIZE_DIGESTS = {
    ("regb", 2): "4751bc865d8d201a991e8d39dca4911b7676f3b1cab79a04a7fc05a8f2929c15",
    ("regb", 3): "52ac0be7592dc05a697ea2afa962137b5977400e412c21b160842fca6fd4d0f6",
    ("thm1", 2): "bcb48ffd12ba2549782b8d080b116853e4c8cc41eb1ea5ec866fb9b68ec28a6a",
    ("thm1", 3): "b1bdb6c71aa93515b99631f1ae6d56473e07b72d73ae406e0ad38221c35e8474",
    ("greeny", 2): "d8dad42d308c8ad7eebf96f68f3286357292dc0f9695eb2e927d7dd93c4d2a41",
    ("greeny", 3): "ffec177efdaa0feff5ec7e714f17db6b6ba890e03548ee8612117a87960680f2",
    ("piper", 2): "19c50fe23c15107de60535d78f54d34897bdde52a62f90e54013bf8f64d580c7",
    ("piper", 3): "6724991b083562740c7eadc8c94480306a8fd1d5ce96b5709b43c339a2f498c8",
    ("sato", 2): "7e58b4bfe90742e08cf864e3d5c88e091e03db48d3a33f98bdc0977eb54239c9",
    ("sato", 3): "95c71f65a9e30ee44917c517e628c8148b689e3013e3e23efd8a93b1888e8e36",
    ("remark_b", 2): "1fb016b019e21717c6836c091328b9ff8d0ceab12936f1a445aae89f2a172886",
    ("remark_b", 3): "096d8c32b408ac9c160b9f79175d0f4b02d86a3f9283aead5718c1c869f39c9b",
    ("probe-q1", 2): "0cab453e0a6ec7175dfed3de3a216adbdc7486b2f062408afd492afc9442dd95",
    ("probe-q1", 3): "a8fc51b2dbbdbf482f106d01a820db736504e35992eca0dd1b7614f5953b7863",
}


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


@pytest.mark.parametrize("name, seed", DEFAULT_SIZE_DIGESTS,
                         ids=[f"{name}-seed{seed}" for name, seed in DEFAULT_SIZE_DIGESTS])
def test_default_size_report_digest(capsys, name, seed):
    command = [name] if name == "probe-q1" else ["verify", name]
    assert main([*command, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_SIZE_DIGESTS[name, seed]
