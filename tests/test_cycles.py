import random
from itertools import combinations
from math import factorial

import pytest

from koszul_lab.cycles import (
    gen2_families,
    multi2_failures,
    symmetrized_cycle,
    z1_generator,
    z1_generator_family,
    z1_products,
)
from koszul_lab.exterior import boundary, lowbits, wedge
from koszul_lab.fields import PrimeField, QQ
from koszul_lab.homology import InfeasibleError, KoszulComplex, generates_up_to
from koszul_lab.linalg import Echelon
from koszul_lab.rings import RingConfig, component_basis, power_ideal


def test_z1_generator_is_cycle():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    z = z1_generator(I, (1, 0), 0, 1)
    assert boundary(z).is_zero()
    assert z.multidegree() == (3,)
    # explicit form: x1 [b x2] - x2 [b x1] with b = x1
    assert z.terms == {(0b10, (1, 0)): 1, (0b01, (0, 1)): -1}


def test_z1_generator_validation():
    ring = RingConfig((2, 2))
    I = power_ideal(ring, (1, 1))
    with pytest.raises(ValueError):
        z1_generator(I, (0, 0, 1, 0), 0, 0)  # identical variables
    with pytest.raises(ValueError):
        z1_generator(I, (0, 0, 1, 0), 0, 2)  # variables across blocks
    with pytest.raises(ValueError):
        z1_generator(I, (1, 0, 0, 0), 0, 1)  # wrong b degree
    z = z1_generator(I, (0, 0, 1, 0), 0, 1)
    assert boundary(z).is_zero()


def test_z1_family_spans_z1():
    # the z_b(x_j, x_k) generate Z_1 for powers of the maximal ideal
    for n, c in [(2, 2), (2, 3), (3, 2)]:
        ring = RingConfig((n,))
        I = power_ideal(ring, c)
        kz = KoszulComplex(I)
        for z in z1_generator_family(I):
            assert boundary(z).is_zero()
            assert z.multidegree() == (c + 1,)
        assert kz.span_multiples(z1_products(kz, 1), c + 1).rank == len(
            kz.cycle_space(1, c + 1)
        )


def test_symmetrized_cycle_is_cycle():
    rng = random.Random(41)
    for n, c in [(3, 1), (3, 2), (2, 2)]:
        ring = RingConfig((n,))
        I = power_ideal(ring, c)
        for t in (1, 2):
            alpha = rng.randint(0, c)
            a_deg = component_basis(ring, alpha)
            b_deg = component_basis(ring, c - alpha)
            if not a_deg or not b_deg:
                continue
            a_list = [rng.choice(a_deg) for _ in range(t + 1)]
            b_list = [rng.choice(b_deg) for _ in range(t)]
            z = symmetrized_cycle(I, a_list, b_list)
            assert boundary(z).is_zero()
            if not z.is_zero():
                assert sum(z.multidegree()) == t * c + alpha


def test_symmetrized_cycle_validation():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    with pytest.raises(ValueError):
        symmetrized_cycle(I, [(1, 0)], [(1, 0)])  # need t+1 = 2 a-monomials
    with pytest.raises(ValueError):
        symmetrized_cycle(I, [(1, 0), (0, 1)], [(2, 0)])  # b degree != c - 1


def test_z1_power_inside_cycles():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    kz = KoszulComplex(I)
    prods = z1_products(kz, 2)
    for j in (6, 7, 8):
        vecs = list(kz.span_multiples(prods, j).rows.values())
        assert vecs
        cycles = Echelon(kz.field)
        for z in kz.cycle_chains(2, j):
            cycles.add(kz.chain_vector(z, j))
        assert all(cycles.contains(v) for v in vecs)


def _pair_wedge_rank(kz, j):
    """Rank of the wedges f ^ g of Z_1 basis cycles in degrees a and j - a."""
    ech = Echelon(kz.field)
    for a in range(0, j + 1):
        right = kz.cycle_chains(1, j - a)
        for f in kz.cycle_chains(1, a):
            for g in right:
                p = wedge(f, g)
                if not p.is_zero():
                    vec = kz.chain_vector(p, (j,))
                    if vec:
                        ech.add(vec)
    return ech.rank


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(32003)], ids=str)
def test_z1_products_span_z1_squared(field):
    # the span of the z_b wedges equals that of all Z_1 basis wedges
    kz = KoszulComplex(power_ideal(RingConfig((2,)), 2), field)
    prods = z1_products(kz, 2)
    ranks = [kz.span_multiples(prods, j).rank for j in range(11)]
    assert ranks == [_pair_wedge_rank(kz, j) for j in range(11)]
    assert any(ranks)
    with pytest.raises(ValueError):
        z1_products(kz, 0)


def test_z1_products_guarded_by_the_ceiling():
    # 9 generators z_b(x_j, x_k) for m^2 in three variables: C(9, 3) = 84
    # triple products pass a ceiling of 50, the C(9, 2) = 36 pairs do not
    kz = KoszulComplex(power_ideal(RingConfig((3,)), 2), ceiling=50)
    with pytest.raises(InfeasibleError) as err:
        z1_products(kz, 3)
    assert err.value.estimate == 84
    assert z1_products(kz, 2)


def test_multi2_checker_certificates():
    # a trial for c = (2,) in three variables: two one-cycles of degree 3
    # wedged, times one extra monomial of degree 1, scaled by (u+1)! = 3!
    ring = RingConfig((3,))
    I = power_ideal(ring, 2)
    prod = wedge(z1_generator(I, (1, 0, 0), 0, 1), z1_generator(I, (0, 1, 0), 1, 2))
    chain = prod.scale_monomial((0, 0, 1)).scale(factorial(3))
    assert not chain.is_zero() and boundary(chain).is_zero()
    assert chain.multidegree() == (7,)  # (u+1)c + (u-1) with u = 2
    assert all(v % factorial(3) == 0 for v in chain.terms.values())
    # every trial lies in m^2 Z_2 + B_2, in characteristic 0 and p
    for field in (QQ, PrimeField(32003)):
        assert multi2_failures(ring, (2,), 0, field) == (135, [])


def test_multi2_oneshot_and_blocks(monkeypatch):
    ring = RingConfig((2, 2))
    for field in (QQ, PrimeField(32003)):
        assert multi2_failures(ring, (1, 1), 0, field) == (4, [])
    with pytest.raises(ValueError):
        multi2_failures(ring, (0, 1), 0)  # c_i = 0 has no membership lemma
    # against an empty span every nonzero trial is reported as a failure
    monkeypatch.setattr(KoszulComplex, "cycle_chains", lambda self, t, alpha: [])
    monkeypatch.setattr(KoszulComplex, "boundary_image", lambda self, t, alpha: [])
    trials, failures = multi2_failures(ring, (1, 1), 0)
    assert trials == len(failures) == 4
    for f in failures:
        assert len(f["a"]) == len(f["pairs"]) == 1 and len(f["extra"]) == 4


def test_gen2_families_properties():
    # families sit in degrees 2c+1 (symmetrized) and 2c+2 (products)
    fams = gen2_families(3, 2)
    assert fams
    for z in fams:
        assert z.t == 2
        assert boundary(z).is_zero()
    assert {sum(z.multidegree()) for z in fams} == {5, 6}
    # two variables leave no room for the three-variable symmetrized family
    fams = gen2_families(2, 2)
    assert fams and {sum(z.multidegree()) for z in fams} == {6}


def test_wedge_of_z1_generators_is_cycle():
    ring = RingConfig((3,))
    I = power_ideal(ring, 2)
    fams = z1_generator_family(I)
    w = wedge(fams[0], fams[3])
    assert boundary(w).is_zero()


def _swap_terms(chain, k):
    """The terms of the chain with x_{k-1} and x_k swapped: generator u_i goes
    to the generator u_i with those exponents swapped, and each e_T to the
    sorted wedge of the images, with the sign of the sort."""
    gens = chain.ideal.gens

    def swap(m):
        return m[: k - 1] + (m[k], m[k - 1]) + m[k + 1 :]

    image = [gens.index(swap(u)) for u in gens]
    terms = {}
    for (T, m), c in chain.terms.items():
        moved = [image[b.bit_length() - 1] for b in lowbits(T)]
        inversions = sum(a > b for a, b in combinations(moved, 2))
        terms[sum(1 << i for i in moved), swap(m)] = (-1) ** inversions * c
    return terms


def _up_to_sign(terms):
    lead = 1 if terms[min(terms)] > 0 else -1
    return frozenset((key, lead * c) for key, c in terms.items())


@pytest.mark.parametrize(
    "blocks, c, t",
    [((n,), (c,), t) for n in (2, 3) for c in (1, 2) for t in (1, 2, 3)] + [((2, 2), (1, 1), 2)],
)
def test_z1_products_are_closed_under_the_orbit_swaps(blocks, c, t):
    # KoszulComplex.orbit_dims sums the span of a family per orbit of the
    # adjacent swaps of its runs; that is exact because each swap maps the
    # products of the z_b onto themselves up to sign
    kz = KoszulComplex(power_ideal(RingConfig(blocks), c))
    if t > kz.ideal.r:
        return
    family = {_up_to_sign(g.terms) for _, g in z1_products(kz, t)}
    swaps = [k for start, end in kz._runs for k in range(start + 1, end)]
    assert swaps
    for k in swaps:
        assert {_up_to_sign(_swap_terms(g, k)) for _, g in z1_products(kz, t)} == family


def test_orbit_dims_needs_a_swap_closed_family():
    # gen2's n = 2, c = 3 family without its third member is not swap-closed:
    # per orbit it looks generating at degree 8, where it does not generate
    kz = KoszulComplex(power_ideal(RingConfig((2,)), 3))
    family = gen2_families(2, 3)
    part = family[:2]
    assert len(family) == 3
    assert kz.orbit_dims(2, [(g.multidegree(), g) for g in part], [8]) == {8: (3, 3)}
    assert generates_up_to(kz, part, 2, 8) == (False, (8,))
    assert generates_up_to(kz, family, 2, 8) == (True, None)


def test_orbit_dims_refuses_a_quotient():
    # a product's term at a face dead in S/J is 0 there, which the count does not drop
    ring = RingConfig((2,))
    kz = KoszulComplex(power_ideal(ring, 2), QQ, power_ideal(ring, 3))
    with pytest.raises(ValueError, match="M = S"):
        kz.orbit_dims(1, z1_products(kz, 1), [3])
