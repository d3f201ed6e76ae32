import random

import pytest

from koszul_lab.fields import QQ, PrimeField
from koszul_lab.harness import random_monomial_ideal
from koszul_lab.homology import (
    Coefficients,
    KoszulComplex,
    cycle_module,
    cycle_space,
    degrees_upto,
    free_module,
    generates_up_to,
    generation_degrees,
    homology_dim,
    homology_module,
    ideal_module,
    quotient_ring_module,
    tor_dims,
    tor_violations,
)
from koszul_lab.rings import (
    MonomialIdeal,
    RingConfig,
    component_dim,
    power_ideal,
    quotient_component_dim,
)


def test_regular_sequence_is_exact():
    # the generators x, y of m form a regular sequence: H_t = 0 for t >= 1
    ring = RingConfig((2,))
    I = power_ideal(ring, 1)
    kz = KoszulComplex(I)
    for t in (1, 2):
        for j in range(0, 7):
            assert kz.homology_dim(t, j) == 0
    # and H_0 = S/m is one-dimensional in degree 0
    assert kz.homology_dim(0, 0) == 1
    assert kz.homology_dim(0, 1) == 0


def test_cycles_are_in_kernel():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.choice([2, 3])
        I = random_monomial_ideal(rng, RingConfig((n,)), 3, 5)
        kz = KoszulComplex(I)
        t = rng.randint(1, min(3, I.r))
        j = rng.randint(t, t * 3 + 2)
        M = kz.boundary_matrix(t, (j,))
        for v in kz.cycle_space(t, (j,)).vectors:
            assert M.apply(v, QQ) == {}


def test_euler_characteristic():
    # sum (-1)^t dim K_t = sum (-1)^t dim H_t in every degree
    rng = random.Random(32)
    for _ in range(10):
        n = rng.choice([2, 3])
        I = random_monomial_ideal(rng, RingConfig((n,)), 3, 4)
        kz = KoszulComplex(I)
        j = rng.randint(2, 8)
        chi_k = sum((-1) ** t * len(kz.basis(t, (j,))) for t in range(I.r + 1))
        chi_h = sum((-1) ** t * kz.homology_dim(t, (j,)) for t in range(I.r + 1))
        assert chi_k == chi_h


def test_boundaries_are_cycles():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    kz = KoszulComplex(I)
    M = kz.boundary_matrix(1, 4)
    for col in kz.boundary_image(1, 4):
        assert M.apply(col, QQ) == {}


def test_quotient_coefficients_shrink():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    J = MonomialIdeal(ring, [(0, 3)])
    kz_full = KoszulComplex(I)
    kz_quot = KoszulComplex(I, QQ, Coefficients(ring, J))
    for t in (0, 1, 2):
        for j in range(0, 8):
            assert len(kz_quot.basis(t, j)) <= len(kz_full.basis(t, j))
    # K_0 of the quotient is S/J
    assert len(kz_quot.basis(0, 5)) == quotient_component_dim(J, 5)


def test_module_level_wrappers():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    assert len(cycle_space(I, 1, 3).vectors) == 2
    assert homology_dim(I, 1, 3) == 2


def test_free_module_tor():
    M = free_module(RingConfig((2,)))
    assert tor_dims(M, 0, 0) == 1
    for j in range(1, 5):
        assert tor_dims(M, 0, j) == 0
        assert tor_dims(M, 1, j) == 0
    assert M.dim(3) == component_dim(RingConfig((2,)), 3)


def test_quotient_ring_betti_m_squared():
    # S/m^2 in two variables: 0 -> S(-3)^2 -> S(-2)^3 -> S -> S/m^2 -> 0
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    M = quotient_ring_module(ring, I)
    assert tor_dims(M, 0, 0) == 1
    assert tor_dims(M, 1, 2) == 3
    assert tor_dims(M, 2, 3) == 2
    assert tor_dims(M, 1, 3) == 0
    assert tor_dims(M, 2, 4) == 0


def test_ideal_module_generators():
    ring = RingConfig((2,))
    I = MonomialIdeal(ring, [(2, 0), (0, 3)])
    M = ideal_module(ring, I)
    assert generation_degrees(M, 6) == [2, 3]
    assert tor_dims(M, 0, 2) == 1 and tor_dims(M, 0, 3) == 1


def test_cycle_and_homology_modules():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    kz = KoszulComplex(I)
    Z = cycle_module(kz, 1)
    H = homology_module(kz, 1)
    assert Z.dim(3) == 2 and Z.dim(4) == 4
    assert H.dim(3) == 2 and H.dim(4) == 1 and H.dim(5) == 0
    # Z_1 here is free on two degree-3 generators
    assert tor_dims(Z, 0, 3) == 2
    assert tor_violations(Z, 3, slack=3) == []
    # H_1 has regularity 4 = t(c+1) + c - 1
    assert tor_violations(H, 4, slack=3) == []
    assert tor_dims(H, 0, 4) == 0  # generated in degree 3


def test_coords_roundtrip():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    Z = cycle_module(KoszulComplex(I), 1)
    piece = Z.piece(4)
    for b, (_, v) in enumerate(piece.reps):
        assert Z.coords(4, v) == {b: QQ.one}
    with pytest.raises(ValueError):
        Z.coords(4, {piece.keys[0]: QQ.one})  # a non-cycle ambient vector


def test_gfp_matches_rationals_here():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    Zq = cycle_module(KoszulComplex(I, QQ), 1)
    Zp = cycle_module(KoszulComplex(I, PrimeField(32003)), 1)
    for i in range(0, 3):
        for j in range(0, 7):
            assert tor_dims(Zq, i, j) == tor_dims(Zp, i, j)


def test_degrees_upto():
    ring = RingConfig((2, 2))
    box = degrees_upto(ring, (2, 1))
    assert len(box) == 6
    assert (0, 0) in box and (2, 1) in box


def test_generates_up_to_positive_and_negative():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    kz = KoszulComplex(I)
    cb = kz.cycle_space(1, 3)
    gens = [kz.vector_chain(1, 3, v) for v in cb.vectors]
    ok, fail = generates_up_to(gens, I, 1, 6)
    assert ok and fail is None
    ok, fail = generates_up_to(gens[:1], I, 1, 6)
    assert not ok and fail == (3,)
    with pytest.raises(ValueError):
        generates_up_to([kz.vector_chain(1, 4, {0: 1})], I, 1, 5)
