"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints an explicit CRITERION line so the verbose run reads as a
per-criterion pass/fail report.
"""

import json

from koszul_lab.fields import QQ
from koszul_lab.harness import probe_q1, run_suite
from koszul_lab.homology import KoszulComplex
from koszul_lab.rings import power_ideal
from koszul_lab.veronese import SegreVeroneseSpec, green_lazarsfeld_index, veronese_betti

from oracles import quadric_relation_count


def report(name, ok):
    print(f"CRITERION {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_signs_and_canonical_maps():
    # exhaustive sign identity on [1, 6] plus >= 200 random chain identities
    signs = run_suite("signs")
    maps = run_suite("maps", seed=1, size=200)
    ok = signs.verdict == "pass" and maps.verdict == "pass" and len(maps.cases) >= 200
    report("1 (sign identity + canonical map identities)", ok)


def test_criterion_2_betti_quadric_oracle():
    expected = {((2,), (2,)): 1, ((2,), (3,)): 3, ((3,), (2,)): 6}
    ok = True
    for (blocks, c), value in expected.items():
        spec = SegreVeroneseSpec(blocks, c)
        oracle = quadric_relation_count(spec)
        computed = veronese_betti(spec, 1).entry(1, 2)
        # the table derives beta_{1,2} from the Euler characteristic; the rank is independent
        kz = KoszulComplex(power_ideal(spec.ring, spec.c))
        ranked = kz.homology_dim(1, tuple(2 * a for a in spec.c))
        ok = ok and oracle == value == computed == ranked
    report("2 (beta_{1,2} equals the quadric-count oracle: 1, 3, 6)", ok)


def test_criterion_3_index_at_desk_scale():
    ok = True
    for blocks, c in [((3,), (2,)), ((2, 2), (1, 1))]:
        spec = SegreVeroneseSpec(blocks, c)
        target = spec.min_c + 1
        res = green_lazarsfeld_index(spec, target, QQ)
        ok = ok and res.satisfies(target)
    report("3 (Green-Lazarsfeld index >= min(c) + 1, certified windows)", ok)


def test_criterion_4_cycle_power_dimensions():
    rep = run_suite("maincyc")
    covered = {(c["params"].get("n"), c["params"].get("c"), c["params"].get("t")) for c in rep.cases}
    wanted = {(n, c, t) for n in (2, 3) for c in (1, 2) for t in (2, 3)}
    ok = rep.verdict == "pass" and wanted <= covered
    report("4 (dim (Z_1^t)_j = dim (Z_t)_j in the generating window)", ok)


def test_criterion_5_two_cycle_generation():
    rep = run_suite("gen2")
    covered = {(c["params"]["n"], c["params"]["c"]) for c in rep.cases}
    ok = rep.verdict == "pass" and covered == {(2, 2), (2, 3), (3, 2)}
    report("5 (explicit families generate Z_2 through degree 2c+2)", ok)


def test_criterion_6_regularity_falsification_suites():
    ok = True
    for name in ("regb", "greeny", "remark_b", "thm1", "piper", "sato"):
        rep = run_suite(name, seed=1)
        ok = ok and rep.verdict == "pass" and len(rep.cases) >= 50
    report("6 (six falsification suites, >= 50 cases each, zero violations)", ok)


def test_criterion_7_membership_certificates():
    rep = run_suite("multi2")
    configs = {(tuple(c["params"]["blocks"]), tuple(c["params"]["c"])) for c in rep.cases}
    trials = sum(c["window"]["exhaustive_trials"] for c in rep.cases)
    ok = (
        rep.verdict == "pass"
        and configs == {((2, 2), (1, 1)), ((3,), (2,))}
        and trials > 0
    )
    report("7 (factorial membership certificate for every enumerated trial)", ok)


def test_criterion_8_surjectivity_tor_equivalence():
    rep = run_suite("surge")
    table = rep.cases[0]["details"]["by_degree"]
    ok = (
        rep.verdict == "pass"
        and set(table) == {str(j) for j in range(0, 11)}
        and any(row["dim_Z2"] > 0 for row in table.values())
    )
    report("8 (product surjectivity matches Tor_1 vanishing, degrees <= 10)", ok)


def test_criterion_9_byte_identical_json():
    ok = True
    for name, kwargs in [
        ("regb", {"seed": 11, "size": 8}),
        ("maincyc", {}),
        ("multi2", {}),
    ]:
        a = json.dumps(run_suite(name, **kwargs).to_dict(), sort_keys=True)
        b = json.dumps(run_suite(name, **kwargs).to_dict(), sort_keys=True)
        ok = ok and a == b and json.loads(a)["suite"] == name
    a = json.dumps(probe_q1(seed=2, size=3).to_dict(), sort_keys=True)
    b = json.dumps(probe_q1(seed=2, size=3).to_dict(), sort_keys=True)
    ok = ok and a == b
    report("9 (byte-identical JSON across identical-seed reruns)", ok)
