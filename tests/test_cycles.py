import random
from math import factorial

import pytest

from koszul_lab.cycles import (
    Multi2Checker,
    gen2_families,
    symmetrized_cycle,
    z1_generator,
    z1_generator_family,
    z1_products,
)
from koszul_lab.exterior import boundary, wedge
from koszul_lab.fields import PrimeField, QQ
from koszul_lab.homology import KoszulComplex
from koszul_lab.linalg import Echelon
from koszul_lab.rings import RingConfig, component_basis, power_ideal


def test_z1_generator_is_cycle():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    z = z1_generator(I, (1, 0), 0, 1)
    assert boundary(z).is_zero()
    assert z.multidegree() == (3,)
    # explicit form: x1 [b x2] - x2 [b x1] with b = x1
    assert z.terms == {((2,), (1, 0)): 1, ((1,), (0, 1)): -1}


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
        fams = z1_generator_family(I)
        kz = KoszulComplex(I)
        for fam in fams:
            assert boundary(fam.chain).is_zero()
            assert fam.chain.multidegree() == (c + 1,)
        assert kz.span_multiples(z1_products(kz, 1), c + 1).rank == len(
            kz.cycle_space(1, c + 1).vectors
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
        for v in vecs:
            assert boundary(kz.vector_chain(2, j, v)).is_zero()


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


def test_multi2_checker_certificates():
    ring = RingConfig((3,))
    checker = Multi2Checker(ring, (2,), 0, QQ)
    assert checker.alpha == (7,)  # (u+1)c + (u-1) with u = 2
    trial = next(
        t for t in checker.enumerate_trials()
        if not checker.trial_chain(*t).is_zero()
    )
    assert checker.check(*trial)
    # the scaled trial chain really carries the (u+1)! factor
    chain = checker.trial_chain(*trial)
    vals = set(chain.terms.values())
    assert all(v % factorial(checker.u + 1) == 0 for v in vals)


def test_multi2_oneshot_and_blocks():
    ring = RingConfig((2, 2))
    checker = Multi2Checker(ring, (1, 1), 0, QQ)
    trials = list(checker.enumerate_trials())
    assert trials
    assert Multi2Checker(ring, (1, 1), 0, QQ).check(*trials[0]) is True


def test_gen2_families_properties():
    fams = gen2_families(3, 2)
    assert fams
    labels = {f.label for f in fams}
    assert labels == {"gen2_type1", "gen2_type2"}
    for f in fams:
        assert f.chain.t == 2
        assert boundary(f.chain).is_zero()
        assert sum(f.chain.multidegree()) in (5, 6)  # 2c+1 and 2c+2
    # two variables leave no room for the three-variable symmetrized family
    assert {f.label for f in gen2_families(2, 2)} == {"gen2_type2"}


def test_wedge_of_z1_generators_is_cycle():
    ring = RingConfig((3,))
    I = power_ideal(ring, 2)
    fams = z1_generator_family(I)
    w = wedge(fams[0].chain, fams[3].chain)
    assert boundary(w).is_zero()
