import random
import sys
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from koszul_lab import rings
from koszul_lab.fields import QQ, PrimeField
from koszul_lab.homology import KoszulComplex
from koszul_lab.rings import (
    MonomialIdeal,
    RingConfig,
    _bounded_compositions,
    borel_closure,
    component_basis,
    component_dim,
    ideal_from_dict,
    is_strongly_stable,
    mon_divides,
    mon_key,
    mon_lcm,
    mon_mul,
    monomial_quotient_dim,
    power_containment,
    power_ideal,
    quotient_component_dim,
    reg_monomial_ideal,
    total_deg,
)

from oracles import taylor_caps


def test_ring_config_basics():
    ring = RingConfig((2, 3))
    assert ring.d == 2 and ring.n == 5
    assert ring.block_slices() == [(0, 2), (2, 5)]
    assert [ring.block_of(k) for k in range(5)] == [0, 0, 1, 1, 1]
    assert ring.mdeg((1, 0, 2, 0, 1)) == (1, 3)
    assert ring.var(3) == (0, 0, 0, 1, 0)
    assert ring.as_mdeg((1, 2)) == (1, 2)
    with pytest.raises(ValueError):
        ring.as_mdeg(3)
    assert RingConfig((4,)).as_mdeg(3) == (3,)


def test_monomial_ops():
    a, b = (2, 1, 0), (0, 1, 3)
    assert mon_mul(a, b) == (2, 2, 3)
    assert mon_lcm(a, b) == (2, 1, 3)
    assert mon_divides((0, 1, 0), a)
    assert not mon_divides(b, a)


def test_component_basis_matches_dim():
    rng = random.Random(1)
    for _ in range(20):
        blocks = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        ring = RingConfig(blocks)
        alpha = tuple(rng.randint(0, 4) for _ in blocks)
        basis = component_basis(ring, alpha)
        assert len(basis) == component_dim(ring, alpha)
        assert len(set(basis)) == len(basis)
        for m in basis:
            assert ring.mdeg(m) == alpha
    # a negative degree has no monomials and no compositions
    assert component_basis(RingConfig((2, 1)), (-1, 2)) == ()
    assert list(_bounded_compositions(-1, (1,))) == [] == list(_bounded_compositions(-1, (1,) * 3))


@settings(max_examples=300)
@given(
    caps=st.lists(st.integers(-1, 4), max_size=5),
    ties=st.lists(st.booleans(), max_size=6),
    data=st.data(),
)
def test_bounded_compositions_are_the_filtered_product_lex_descending(caps, ties, data):
    # negative caps, negative totals and totals past sum(caps) give nothing;
    # ties[0] has no predecessor and ties past the caps are ignored
    total = data.draw(st.integers(-2, sum(map(abs, caps)) + 2))
    tied = [k for k in range(1, len(caps)) if k < len(ties) and ties[k]]
    ascending = [
        w
        for w in product(*(range(c + 1) for c in caps))
        if sum(w) == total and all(w[k] <= w[k - 1] for k in tied)
    ]
    assert list(_bounded_compositions(total, tuple(caps), tuple(ties))) == ascending[::-1]


def test_bounded_compositions_need_no_recursion():
    # longer than the recursion limit: the partitions of 2 into 1,500 parts
    n = sys.getrecursionlimit() + 500
    parts = list(_bounded_compositions(2, (2,) * n, (False,) + (True,) * (n - 1)))
    assert parts == [(2,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2)]
    assert sum(1 for _ in _bounded_compositions(1, (1,) * n)) == n


def test_ideal_minimalization():
    ring = RingConfig((2,))
    I = MonomialIdeal(ring, [(2, 0), (3, 0), (2, 1), (0, 2)])
    assert I.gens == ((2, 0), (0, 2))
    assert I.contains((2, 5)) and not I.contains((1, 1))
    assert I.gen_index((2, 0)) == 1
    with pytest.raises(ValueError):
        MonomialIdeal(ring, [(0, 0)])


def test_minimal_generators_match_the_pairwise_test(monkeypatch):
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        # multiples of drawn generators, minimal only when equal to one
        gens += [tuple(e + rng.randint(0, 2) for e in rng.choice(gens)) for _ in range(4)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        brute = sorted(
            {g for g in gens if not any(h != g and mon_divides(h, g) for h in gens)},
            key=mon_key,
        )
        assert MonomialIdeal(RingConfig((n,)), gens).gens == tuple(brute)
    # the generators of m^c share one total degree: no divisibility test at all
    calls = []
    monkeypatch.setattr(rings, "mon_divides", lambda a, b: calls.append((a, b)))
    assert power_ideal(RingConfig((3, 2)), (2, 1)).r == 12 and calls == []


def test_power_ideal_gens():
    ring = RingConfig((2, 2))
    I = power_ideal(ring, (1, 1))
    assert I.r == 4
    assert I.is_equigenerated() == (1, 1)
    J = power_ideal(RingConfig((3,)), 2)
    assert J.r == 6 and J.max_gen_degree() == 2


def test_strongly_stable_and_borel():
    ring = RingConfig((3,))
    m2 = power_ideal(ring, 2)
    assert is_strongly_stable(m2)
    I = MonomialIdeal(ring, [(0, 0, 2)])
    assert not is_strongly_stable(I)
    B = borel_closure(ring, [(0, 0, 2)])
    assert is_strongly_stable(B)
    # Borel closure of x3^2 is all degree-2 monomials
    assert B == m2
    with pytest.raises(ValueError):
        is_strongly_stable(power_ideal(RingConfig((1, 1)), (1, 1)))


def _exchange_closed(I):
    """Reference for is_strongly_stable: every x_i -> x_j exchange, j < i, of
    a generator stays in I."""
    for u in I.gens:
        for i in range(I.ring.n):
            for j in range(i if u[i] else 0):
                moved = list(u)
                moved[i] -= 1
                moved[j] += 1
                if not I.contains(tuple(moved)):
                    return False
    return True


@settings(max_examples=200)
@given(n=st.integers(2, 4), data=st.data())
def test_strong_stability_is_the_generator_exchange_check(n, data):
    ring = RingConfig((n,))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    seed = data.draw(st.lists(exps, min_size=1, max_size=5))
    I, B = MonomialIdeal(ring, seed), borel_closure(ring, seed)
    assert is_strongly_stable(I) == _exchange_closed(I)
    assert is_strongly_stable(B) and _exchange_closed(B)


def test_quotient_dims():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    assert quotient_component_dim(I, 0) == 1
    assert quotient_component_dim(I, 1) == 2
    assert quotient_component_dim(I, 2) == 0
    assert monomial_quotient_dim(I) == 0
    J = MonomialIdeal(ring, [(1, 0)])
    assert monomial_quotient_dim(J) == 1
    assert monomial_quotient_dim(MonomialIdeal(RingConfig((3,)), [(1, 1, 0)])) == 2


def test_power_containment():
    ring = RingConfig((2,))
    I = MonomialIdeal(ring, [(2, 0), (0, 3)])
    assert not power_containment(I, 3)
    assert power_containment(I, 4)  # x^a y^b, a+b=4 forces a>=2 or b>=3
    # bigraded: m_1^2 + m_2^2 misses x11 x21 in degree 2 and holds all of
    # degree 3, where some block has degree >= 2; m_1 m_2 misses every x11^k
    ring = RingConfig((2, 2))
    I = MonomialIdeal(ring, component_basis(ring, (2, 0)) + component_basis(ring, (0, 2)))
    assert [power_containment(I, k) for k in range(5)] == [False, False, False, True, True]
    assert not any(power_containment(power_ideal(ring, (1, 1)), k) for k in range(6))
    # every monomial of degree k, by filter, against the ideal's generators
    for k in range(5):
        monomials = [m for m in product(range(k + 1), repeat=4) if sum(m) == k]
        assert power_containment(I, k) == all(map(I.contains, monomials))


def test_taylor_caps():
    ring = RingConfig((2,))
    I = MonomialIdeal(ring, [(2, 0), (0, 3)])
    caps = taylor_caps(I)
    assert caps[1] == 3 and caps[2] == 5


def test_reg_strongly_stable():
    ring = RingConfig((3,))
    B = borel_closure(ring, [(1, 0, 2)])
    assert reg_monomial_ideal(B) == B.max_gen_degree() == 3


def test_reg_complete_intersection():
    # I = (x^2, y^3): Koszul resolution, reg(S/I) = 3, so reg(I) = 4
    ring = RingConfig((2,))
    I = MonomialIdeal(ring, [(2, 0), (0, 3)])
    assert reg_monomial_ideal(I) == 4


def test_reg_random_vs_taylor_bound():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.choice([2, 3])
        ring = RingConfig((n,))
        gens = set()
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(n)] += 1
            gens.add(tuple(exps))
        I = MonomialIdeal(ring, gens)
        val = reg_monomial_ideal(I)
        caps = taylor_caps(I)
        # reg(I) <= max over i of cap_i - i + 1
        assert val <= max(c - i for i, c in caps.items()) + 1
        assert val >= I.max_gen_degree()


def _taylor_cap_scan(I, field):
    """reg(I) from dim Tor_i(S/I, K)_j at every degree j <= cap_i (`taylor_caps`),
    with no strongly-stable shortcut."""
    kz = KoszulComplex(power_ideal(I.ring, 1), field, I)
    reg = 0
    for i, cap in taylor_caps(I).items():
        for j in range(i, cap + 1):
            if kz.homology_dim(i, (j,)) > 0:
                reg = max(reg, j - i)
    return reg + 1


@settings(max_examples=50)
@given(
    n=st.sampled_from([2, 3, 4]),
    data=st.data(),
    field=st.sampled_from([QQ, PrimeField(2), PrimeField(5)]),
)
def test_reg_matches_the_taylor_cap_scan(n, data, field):
    # a generator is x_k^a x_l^b with a >= 1 and a + b <= 4: pure powers and
    # near-pure ones are common, so are sets like (x1^3, x1 x2^2, x1 x3^2) whose
    # top Tor sits at the lcm of three generators and of no two
    var, power = st.integers(0, n - 1), st.integers(0, 4)
    gen = st.tuples(var, power, var, power).filter(lambda g: 1 <= g[1] and g[1] + g[3] <= 4).map(
        lambda g: tuple(g[1] * (k == g[0]) + g[3] * (k == g[2]) for k in range(n))
    )
    I = MonomialIdeal(RingConfig((n,)), data.draw(st.lists(gen, min_size=1, max_size=5)))
    assert reg_monomial_ideal(I, field) == _taylor_cap_scan(I, field) == _lattice_scan(I, field)


def _taylor_pairs(gens, n):
    """The (lcm(u_T), |T|) over the nonempty sets T of the monomials gens
    with |T| <= n."""
    return {
        (reduce(mon_lcm, T), k) for k in range(1, min(len(gens), n) + 1)
        for T in combinations(gens, k)
    }


def _lattice_scan(I, field):
    """reg(I) from every fine block of the LCM lattice and every i in
    1..min(r, n), with no strongly-stable shortcut and no early stop."""
    kz = KoszulComplex(power_ideal(I.ring, 1), field, I)
    lattice = {beta for beta, _ in _taylor_pairs(I.gens, I.r)}
    reg = 0
    for beta in lattice:
        for i in range(1, min(I.r, I.ring.n) + 1):
            if kz.homology_dim(i, beta) > 0:
                reg = max(reg, total_deg(beta) - i)
    return reg + 1


def test_reg_ranks_only_the_lcm_lattice(monkeypatch):
    # only the (beta, i) that the Taylor resolution allows are ranked, the
    # largest |beta| - i first: (x^2, y^3) ranks Tor_2 at x^2 y^3 alone
    ranked = []
    morse_dim = KoszulComplex._morse_dim

    def spy(self, t, beta, levels, up):
        ranked.append((beta, t))
        return morse_dim(self, t, beta, levels, up)

    monkeypatch.setattr(KoszulComplex, "_morse_dim", spy)
    I = MonomialIdeal(RingConfig((2,)), [(2, 0), (0, 3)])
    assert reg_monomial_ideal(I) == 4
    assert ranked == [((2, 3), 2)]
    # memoised per (ideal, field): an equal ideal is not ranked again
    ranked.clear()
    assert reg_monomial_ideal(MonomialIdeal(RingConfig((2,)), [(0, 3), (2, 0)])) == 4
    assert ranked == []
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        I = MonomialIdeal(RingConfig((n,)), [g for g in gens if any(g)] or [(1,) * n])
        ranked.clear()
        reg_monomial_ideal(I)
        assert set(ranked) <= _taylor_pairs(I.gens, n)


def test_reg_depends_on_the_field():
    # the Stanley-Reisner ideal of the 6-vertex RP^2: its 10 non-faces are
    # squarefree cubics; H~_2(RP^2) and H~_1(RP^2) are nonzero only in
    # characteristic 2, which puts a Betti number at (3, 6) (Reisner 1976)
    facets = {frozenset(map(int, f)) for f in "123 134 145 156 126 235 245 246 346 356".split()}
    nonfaces = [c for c in combinations(range(1, 7), 3) if frozenset(c) not in facets]
    I = MonomialIdeal(RingConfig((6,)), [tuple(int(k in c) for k in range(1, 7)) for c in nonfaces])
    assert I.r == 10
    assert reg_monomial_ideal(I, QQ) == 3
    assert reg_monomial_ideal(I, PrimeField(3)) == 3
    assert reg_monomial_ideal(I, PrimeField(2)) == 4


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["QQ", "GF2", "GF3"])
def test_quotient_blocks_are_matched_and_keep_their_rank(monkeypatch, field):
    # reg(S/I) ranks blocks of the variables' Koszul complex over S/I: the
    # element matching pairs faces there too, and each Morse rank equals the
    # rank of the same faces with no pair
    morse_dim, matched = KoszulComplex._morse_dim, []

    def spy(self, t, beta, levels, up):
        dim = morse_dim(self, t, beta, levels, up)
        assert self.J is not None and dim == morse_dim(self, t, beta, levels, {})
        matched.append(bool(up))
        return dim

    monkeypatch.setattr(KoszulComplex, "_morse_dim", spy)
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 5))]
        I = MonomialIdeal(RingConfig((n,)), [g for g in gens if any(g)] or [(1,) * n])
        reg_monomial_ideal.__wrapped__(I, field)  # the memo would skip the ranks
    assert any(matched)


def test_ideal_from_dict():
    I = ideal_from_dict({"blocks": [2], "generators": [[2, 0], [0, 2]]})
    assert I.gens == ((2, 0), (0, 2))
    J = ideal_from_dict({"blocks": [2, 2], "power": [1, 1]})
    assert J == power_ideal(RingConfig((2, 2)), (1, 1))
    with pytest.raises(ValueError):
        ideal_from_dict({"blocks": [2]})
    with pytest.raises(ValueError):
        ideal_from_dict([1, 2])
    # an ideal given two ways is refused, not read as one of them
    with pytest.raises(ValueError, match="both"):
        ideal_from_dict({"blocks": [2], "generators": [[1, 0]], "power": [1]})


def test_ideal_from_dict_refuses_unknown_keys():
    # a misspelt key is refused by name, not dropped: read without it, this
    # dict would be m^2
    with pytest.raises(ValueError, match=r"unknown keys \['generator'\]"):
        ideal_from_dict({"blocks": [2], "generator": [[1, 0]], "power": [2]})
    with pytest.raises(ValueError, match=r"\['c', 'gens'\]"):
        ideal_from_dict({"blocks": [2], "gens": [[1, 0]], "c": 1})


def test_lcm_subsets_consistent():
    ring = RingConfig((3,))
    I = power_ideal(ring, 2)
    caps = taylor_caps(I)
    for i in range(1, min(I.r, 3) + 1):
        best = 0
        for sub in combinations(I.gens, i):
            l = sub[0]
            for m in sub[1:]:
                l = mon_lcm(l, m)
            best = max(best, total_deg(l))
        assert caps[i] == best
