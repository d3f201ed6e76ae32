import json
import random

import pytest

from koszul_lab import harness
from koszul_lab.cycles import z1_products
from koszul_lab.fields import PrimeField, QQ
from koszul_lab.homology import KoszulComplex
from koszul_lab.harness import (
    MAINCYC_COMBOS,
    SUITES,
    SuiteReport,
    UnknownSuiteError,
    artinianize,
    ideal_params,
    probe_q1,
    random_monomial_ideal,
    run_suite,
)
from koszul_lab.linalg import Echelon
from koszul_lab.rings import RingConfig, monomial_quotient_dim, power_ideal


def test_random_ideal_corpus():
    rng = random.Random(1)
    for _ in range(50):
        ring = RingConfig((rng.choice([2, 3]),))
        I = random_monomial_ideal(rng, ring, max_deg=3, max_gens=4)
        assert 1 <= I.r <= 4
        assert I.max_gen_degree() <= 3


def test_artinianize():
    ring = RingConfig((3,))
    I = random_monomial_ideal(random.Random(2), ring, 3, 3)
    A = artinianize(I, 3)
    assert monomial_quotient_dim(A) == 0
    P = artinianize(I, 3, skip=(0,))
    assert monomial_quotient_dim(P) <= 1


def test_ideal_params_roundtrip():
    ring = RingConfig((2, 2))
    I = random_monomial_ideal(random.Random(3), ring, 2, 3)
    params = ideal_params(I)
    assert params["blocks"] == [2, 2]
    assert all(len(g) == 4 for g in params["generators"])


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("nope")


def test_char_floor_enforced():
    with pytest.raises(ValueError):
        run_suite("maincyc", field=PrimeField(3))
    with pytest.raises(ValueError):
        run_suite("gen2", field=PrimeField(2))


def test_signs_suite_exhaustive():
    rep = run_suite("signs")
    assert rep.verdict == "pass"
    assert rep.cases[0]["params"]["checked"] == 4 ** 6


def test_signs_suite_sees_one_wrong_sign(monkeypatch):
    # the table is filled by the public sign, so a wrong value on one pair
    # reaches the checks
    sign = harness.sign
    wrong = {((2,), (5,))}
    monkeypatch.setattr(harness, "sign", lambda X, Y: sign(X, Y) * (-1) ** ((X, Y) in wrong))
    rep = run_suite("signs")
    assert rep.verdict == "violation"
    assert [[2], [5], [], "anticommutativity"] in rep.cases[0]["details"]["failures"]


def test_report_shape_and_verdicts():
    rep = run_suite("multi2")
    assert isinstance(rep, SuiteReport)
    d = rep.to_dict()
    assert set(d) == {"suite", "seed", "size", "field", "verdict", "summary", "cases"}
    # each case is the dict the report prints
    assert d["cases"] is rep.cases
    assert [c["index"] for c in rep.cases] == list(range(len(rep.cases)))
    assert all(set(c) == {"index", "params", "verdict", "window", "details"} for c in rep.cases)
    bad = SuiteReport("x", 1, 1, "rat", [{"verdict": "pass"}, {"verdict": "violation"}])
    assert bad.verdict == "violation"
    inf = SuiteReport("x", 1, 1, "rat", [{"verdict": "infeasible"}])
    assert inf.verdict == "infeasible"


def test_json_determinism_all_fast_suites():
    for name in ("signs", "maincyc", "gen2", "surge"):
        a = json.dumps(run_suite(name, seed=5).to_dict(), sort_keys=True)
        b = json.dumps(run_suite(name, seed=5).to_dict(), sort_keys=True)
        assert a == b
        json.loads(a)  # valid JSON


def test_seed_changes_corpus():
    a = json.dumps(run_suite("remark_b", seed=1, size=5).to_dict(), sort_keys=True)
    b = json.dumps(run_suite("remark_b", seed=2, size=5).to_dict(), sort_keys=True)
    assert a != b


def test_small_reg_suites_pass():
    for name in ("regb", "thm1", "greeny", "remark_b", "piper", "sato"):
        rep = run_suite(name, seed=3, size=5)
        assert rep.verdict == "pass", json.dumps(rep.to_dict(), sort_keys=True)
        assert len(rep.cases) == 5


def test_forced_field_recorded():
    # a report names the field it used, as --field spells it; QQ by default
    assert run_suite("remark_b", size=3).field_name == "rat"
    assert run_suite("remark_b", size=3, field=QQ).field_name == "rat"
    assert run_suite("maincyc", size=1, field=PrimeField(5)).field_name == "p=5"
    assert probe_q1(size=1).field_name == "rat"


def test_maincyc_combos_cover_request():
    combos = set(MAINCYC_COMBOS)
    for n in (2, 3):
        for c in (1, 2):
            for t in (2, 3):
                assert (n, c, t) in combos


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(5), PrimeField(32003)], ids=["QQ", "GF5", "GF32003"]
)
def test_maincyc_orbit_sums_are_the_whole_degree_dims(field):
    # from one degree below the window to one past its end, the orbit sums
    # against the cycle space and the span of the products at the whole degree
    for n, c, t in MAINCYC_COMBOS:
        ideal = power_ideal(RingConfig((n,)), c)
        if t > ideal.r:
            continue
        kz = KoszulComplex(ideal, field)
        prods = z1_products(kz, t)
        degrees = range(t * (c + 1) - 1, t * (c + 1) + 4)
        want = {j: (len(kz.cycle_space(t, j)), kz.span_multiples(prods, j).rank) for j in degrees}
        assert KoszulComplex(ideal, field).orbit_dims(t, prods, degrees) == want, (n, c, t)


def test_maincyc_orbit_sums_see_a_degree_below_the_window():
    # one degree below t(c + 1), Z_t has cycles that Z_1^t lacks for three
    # of the n = 3 combinations; elsewhere both are 0 there
    below = {(3, 1, 2): (1, 0), (3, 2, 2): (6, 0), (3, 2, 3): (18, 0)}
    for n, c, t in MAINCYC_COMBOS:
        ideal = power_ideal(RingConfig((n,)), c)
        if t > ideal.r:
            continue
        j = t * (c + 1) - 1
        kz = KoszulComplex(ideal)
        assert kz.orbit_dims(t, z1_products(kz, t), [j])[j] == below.get((n, c, t), (0, 0))


def test_probe_q1_runs():
    rep = probe_q1(seed=1, size=4)
    assert rep.suite == "probe_q1"
    assert len(rep.cases) == 4
    for c in rep.cases:
        assert c["verdict"] in ("pass", "candidate")
        assert c["window"]["certified"] is True


@pytest.mark.parametrize("name", ["greeny", "piper", "probe-q1", "regb", "sato", "thm1"])
def test_tor_suite_windows_are_certified(name):
    # each window runs from the bound to the stability degree |a|, and the
    # summary counts the modules whose window is empty (bound >= |a|)
    rep = probe_q1(seed=3, size=10) if name == "probe-q1" else run_suite(name, seed=3, size=10)
    checks = []
    for c in rep.cases:
        assert c["window"]["certified"] is True
        assert {v["check"] for v in c["details"]["violations"]} <= set(c["window"]["checks"])
        checks += c["window"]["checks"].values()
    decided = sum(ch["bound"] >= ch["stable_degree"] for ch in checks)
    assert rep.summary["decided_by_stability"] == decided


def test_suite_registry_complete():
    assert set(SUITES) == {
        "signs", "maps", "regb", "thm1", "greeny", "remark_b", "piper",
        "sato", "multi", "multi2", "maincyc", "gen2", "check", "surge",
    }


# Tor vanishes past a module's stability degree without any linear algebra, and
# the first cases of these suites scan only there: each runs at the smallest
# size whose cases reach an Echelon (seed 1)
FIELD_SIZES = {"regb": 3, "piper": 5, "greeny": 6}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_computes_in_reported_field(name, monkeypatch):
    gfp = PrimeField(32003)
    size = FIELD_SIZES.get(name, 1)
    if SUITES[name].char_floor >= gfp.characteristic:
        with pytest.raises(ValueError, match="characteristic"):
            run_suite(name, size=1, field=gfp)
        field = QQ
    else:
        field = gfp
    used = set()
    init = Echelon.__init__

    def spy(self, f, *args, **kwargs):
        used.add(f)
        init(self, f, *args, **kwargs)

    monkeypatch.setattr(Echelon, "__init__", spy)
    # with no field given, a suite computes over QQ alone
    for kwargs, want in (({"field": field}, field), ({}, QQ)):
        used.clear()
        rep = run_suite(name, size=size, **kwargs)
        assert rep.field_name == want.name
        # signs and remark_b are field-free; at CHECK_SPECS every block of the
        # entries j >= i + 2 that check ranks is empty, and its linear strand
        # comes from the Euler characteristic, so check builds no Echelon;
        # every other suite does linear algebra
        assert used == (set() if name in ("signs", "remark_b", "check") else {want})


def test_size_limits_every_suite():
    for name in SUITES:
        assert len(run_suite(name, size=1).cases) == 1


@pytest.mark.parametrize(
    "field, verdict, index",
    [
        (PrimeField(3), "violation", "index = 2 (violation at (3, 5))"),
        (QQ, "pass", "index >= 3 (range exhausted)"),
        (PrimeField(5), "pass", "index >= 3 (range exhausted)"),
    ],
    ids=["GF3", "QQ", "GF5"],
)
def test_check_fires_on_v2_P9_in_characteristic_3(monkeypatch, field, verdict, index):
    # negative control: v_2(P^9) has index 2 over GF(3), below the target
    # min(c) + 1 = 3 that holds over QQ and GF(5); the suite itself rejects
    # p <= 3 for this reason
    monkeypatch.setattr(harness, "CHECK_SPECS", [((10,), (2,))])
    [(_, got, _, details)] = harness._check(random.Random(1), field)
    assert (got, details["index"]) == (verdict, index)


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=["QQ", "GF2", "GF3", "GF5"]
)
def test_surge_tor1_is_the_tor3_of_the_quotient(field):
    # 0 -> Z_1 -> S^r -> I -> 0 and 0 -> I -> S -> S/I -> 0 shift Tor_1(S/I, Z_1)
    # to Tor_3(S/I, S/I).  In two variables pd S/I <= 2 (Hilbert's syzygy
    # theorem), so it is 0 in every degree and surge only tests whether the
    # products span Z_2.  For m^2 in three variables the Eagon-Northcott
    # resolution ends in an injective S(-4)^3 -> S(-3)^8, so Tor_3 is
    # (S/m^2)(-4)^3 in degree 5 alone, 3 * dim (S/m^2)_1 = 9; there Z_2 has
    # no product, and in every other degree the products span it.
    kz = KoszulComplex(power_ideal(RingConfig((2,)), 2), field)
    assert [harness._surge_tor1_dim(kz, j) for j in range(13)] == [0] * 13
    kz = KoszulComplex(power_ideal(RingConfig((3,)), 2), field)
    prods = z1_products(kz, 2)
    for j in range(9):
        dz2, rank = len(kz.cycle_space(2, j)), kz.span_multiples(prods, j).rank
        assert harness._surge_tor1_dim(kz, j) == (9 if j == 5 else 0), j
        assert (dz2, rank) == ((6, 0) if j == 5 else (dz2, dz2)), j


def test_check_asks_each_entry_once(monkeypatch):
    # the index is read off the printed table, so no (t, degree) is ranked twice
    asked = []
    homology_dim = KoszulComplex.homology_dim

    def spy(self, t, degree):
        asked.append((self.ring.blocks, t, degree))
        return homology_dim(self, t, degree)

    monkeypatch.setattr(KoszulComplex, "homology_dim", spy)
    report = run_suite("check", seed=1)
    assert asked and len(asked) == len(set(asked))
    assert [c["verdict"] for c in report.cases] == ["pass", "pass"]
