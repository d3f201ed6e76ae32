import random
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, strategies as st

from koszul_lab.exterior import (
    KoszulChain,
    alpha_map,
    boundary,
    formal_boundary,
    gamma_map,
    mask_sign,
    sign,
    sort_bracket,
    wedge,
)
from koszul_lab.harness import random_monomial_ideal
from koszul_lab.homology import KoszulComplex
from koszul_lab.rings import MonomialIdeal, RingConfig, power_ideal


def test_sign_small_cases():
    assert sign((1,), (2,)) == 1
    assert sign((2,), (1,)) == -1
    assert sign((2, 4), (1, 3)) == -1  # pairs (2,1), (4,1), (4,3)
    assert sign((), (1, 2)) == 1
    with pytest.raises(ValueError):
        sign((1, 2), (2, 3))


def test_sign_consistent_with_sort_bracket():
    # sigma(A, B) equals the parity of sorting the concatenation A + B
    rng = random.Random(11)
    for _ in range(100):
        pool = rng.sample(range(1, 10), rng.randint(2, 6))
        cut = rng.randint(1, len(pool) - 1)
        A = tuple(sorted(pool[:cut]))
        B = tuple(sorted(pool[cut:]))
        s, T = sort_bracket(A + B)
        assert T == sum(1 << i - 1 for i in pool)
        assert s == sign(A, B)


@given(
    pool=st.lists(st.integers(1, 12), unique=True, max_size=9).flatmap(
        lambda p: st.tuples(st.permutations(p), st.integers(0, len(p)))
    )
)
def test_sign_is_the_brute_force_inversion_parity(pool):
    # A and B cut from a shuffled pool: disjoint, in any order
    perm, cut = pool
    A, B = tuple(perm[:cut]), tuple(perm[cut:])
    inversions = sum(1 for a in A for b in B if a > b)
    assert sign(A, B) == (-1) ** inversions


@given(
    A=st.lists(st.integers(1, 8), min_size=1, max_size=5),
    B=st.lists(st.integers(1, 8), max_size=5),
    shared=st.data(),
)
def test_sign_rejects_overlapping_index_sets(A, B, shared):
    B = B + [shared.draw(st.sampled_from(A))]
    with pytest.raises(ValueError):
        sign(A, B)


@given(indices=st.lists(st.integers(1, 12), max_size=7))
def test_sort_bracket_is_the_brute_force_inversion_parity(indices):
    if len(set(indices)) < len(indices):
        assert sort_bracket(indices) is None
        return
    inversions = sum(
        1 for a in range(len(indices)) for b in range(a + 1, len(indices))
        if indices[a] > indices[b]
    )
    assert sort_bracket(indices) == ((-1) ** inversions, sum(1 << i - 1 for i in indices))


def test_sort_bracket_parity_and_repeats():
    for perm in permutations((3, 1, 2)):
        s, T = sort_bracket(perm)
        assert T == 0b111
        inv = sum(
            1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
        )
        assert s == (-1) ** inv
    assert sort_bracket((1, 2, 1)) is None


def _random_chain(rng, ideal, t):
    kz = KoszulComplex(ideal)
    T = tuple(sorted(rng.sample(range(1, ideal.r + 1), t)))
    alpha = [0] * ideal.ring.d
    for i in T:
        g = ideal.ring.mdeg(ideal.gens[i - 1])
        alpha = [a + b for a, b in zip(alpha, g)]
    extra = [0] * ideal.ring.n
    for _ in range(rng.randint(0, 2)):
        extra[rng.randrange(ideal.ring.n)] += 1
    alpha = tuple(a + b for a, b in zip(alpha, ideal.ring.mdeg(tuple(extra))))
    terms = {}
    for key in kz.basis(t, alpha):
        c = rng.randint(-3, 3)
        if c and rng.random() < 0.6:
            terms[key] = c
    return KoszulChain(ideal, t, terms)


def _corpus(rng, count=40):
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        I = random_monomial_ideal(rng, RingConfig((n,)), max_deg=3, max_gens=6)
        if I.r >= 2:
            out.append(I)
    return out


def test_boundary_squares_to_zero():
    rng = random.Random(21)
    for I in _corpus(rng):
        t = rng.randint(2, min(3, I.r))
        f = _random_chain(rng, I, t)
        assert boundary(boundary(f)).is_zero()


def test_leibniz_rule():
    rng = random.Random(22)
    for I in _corpus(rng):
        s = rng.randint(1, min(2, I.r - 1))
        t = rng.randint(1, min(2, I.r - s))
        a = _random_chain(rng, I, s)
        f = _random_chain(rng, I, t)
        lhs = boundary(wedge(a, f))
        rhs = wedge(boundary(a), f) + wedge(a, boundary(f)).scale((-1) ** s)
        assert lhs == rhs


def test_gamma_chain_map_identities():
    rng = random.Random(24)
    for I in _corpus(rng):
        t = rng.randint(2, min(3, I.r))
        f = _random_chain(rng, I, t)
        s = rng.randint(0, t - 1)
        gb = gamma_map(boundary(f), s)
        outer = formal_boundary(gamma_map(f, s + 1), I)
        inner = {
            T: boundary(b).scale((-1) ** s) for T, b in gamma_map(f, s).items()
        }
        for target in (outer, inner):
            keys = set(target) | set(gb)
            for T in keys:
                zero = KoszulChain.zero(I, f.t - 1 - s)
                assert target.get(T, zero) == gb.get(T, zero)


def test_formal_boundary_and_gamma_map_hold_no_zero_chain():
    # chains of K_s(phi, K_t) compare as dicts only while no entry is a zero
    # chain; the outer differential squares to 0, so there every entry cancels
    rng = random.Random(26)
    for I in _corpus(rng):
        t = rng.randint(2, min(3, I.r))
        f = _random_chain(rng, I, t)
        s = rng.randint(0, t - 2)
        outer = formal_boundary(gamma_map(f, s + 1), I)
        for fs in (gamma_map(f, s), gamma_map(f, s + 1), outer, gamma_map(boundary(f), s)):
            assert not any(b.is_zero() for b in fs.values())
        assert formal_boundary(formal_boundary(gamma_map(f, s + 2), I), I) == {}


def test_alpha_gamma_binomial():
    rng = random.Random(25)
    for I in _corpus(rng):
        t = rng.randint(1, min(3, I.r))
        f = _random_chain(rng, I, t)
        s = rng.randint(0, t)
        assert alpha_map(gamma_map(f, s), I, t) == f.scale(comb(t, s))


def test_chain_arithmetic_and_degrees():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    f = KoszulChain.basis_element(I, 0b01, (0, 1))
    g = KoszulChain.basis_element(I, 0b10, (1, 0))
    h = f + g
    assert h.multidegree() == (3,)
    assert (h - h).is_zero()
    assert h.scale(0).is_zero()
    assert f.scale_monomial((1, 1)).multidegree() == (5,)
    mixed = f + KoszulChain.basis_element(I, 0b01, (1, 1))
    with pytest.raises(ValueError):
        mixed.multidegree()


def test_chain_validation():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    with pytest.raises(ValueError):
        KoszulChain(I, 1, {(0b10000, (0, 0)): 1})
    with pytest.raises(ValueError):
        KoszulChain(I, 2, {(0b001, (0, 0)): 1})
    # both ends of the bit range [0, r), r = 3
    for T in [-1, -2, 0b1000, 0b1010, 0b1001]:
        with pytest.raises(ValueError):
            KoszulChain(I, abs(T).bit_count(), {(T, (0, 0)): 1})
    assert KoszulChain(I, 2, {(0b101, (0, 0)): 1}).terms == {(0b101, (0, 0)): 1}
    assert KoszulChain(I, 0, {(0, (1, 0)): 2}).terms == {(0, (1, 0)): 2}


def test_chain_refuses_every_index_set_but_a_bitmask_of_size_t():
    # a tuple T, even a repeated or unsorted one, is no key: it raises
    # ValueError, not TypeError, as does a bitmask outside [0, 2^r) or of
    # the wrong size
    I = power_ideal(RingConfig((2,)), 2)
    for T, t in [((2, 1), 2), ((1, 2), 2), ((1, 1), 2), ((1,), 1), (1.0, 1), (True, 1),
                 (-1, 1), (0b1000, 1), (1 << 3 | 1, 2), (0b011, 1), (0b001, 0), (0, 1)]:
        with pytest.raises(ValueError):
            KoszulChain(I, t, {(T, (0, 0)): 1})
    with pytest.raises(ValueError):
        KoszulChain.basis_element(I, (1, 2), (0, 0))


@given(slots=st.lists(st.integers(0, 2), min_size=8, max_size=8))
def test_mask_sign_is_the_brute_force_inversion_parity(slots):
    # slot 1 puts i in A, slot 2 in B, slot 0 in neither: disjoint subsets of {1..8}
    A, B = ([i for i, x in enumerate(slots, 1) if x == k] for k in (1, 2))
    inversions = sum(1 for a in A for b in B if a > b)
    assert mask_sign(sum(1 << a - 1 for a in A), sum(1 << b - 1 for b in B)) == (-1) ** inversions


def test_render_stable():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    z = KoszulChain(I, 1, {(0b100, (1, 0)): 1, (0b010, (0, 1)): -1})
    assert z.render() == "-1 * [x1*x2] * x2 + 1 * [x2^2] * x1"
    assert KoszulChain.zero(I, 1).render() == "0"
