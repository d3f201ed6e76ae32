import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod
from operator import le, sub

import pytest
from hypothesis import given, settings, strategies as st

from koszul_lab import homology, regularity
from koszul_lab.exterior import KoszulChain, boundary
from koszul_lab.fields import QQ, PrimeField
from koszul_lab.harness import _regb, _sato, _tor_checks, random_monomial_ideal
from koszul_lab.homology import InfeasibleError, KoszulComplex, degrees_upto, generates_up_to
from koszul_lab.linalg import Echelon, kernel_basis
from koszul_lab.regularity import (
    GradedModule,
    cycle_module,
    homology_module,
    tor_dims,
    tor_violations,
)
from koszul_lab.rings import (
    MonomialIdeal,
    RingConfig,
    _bounded_compositions,
    component_basis,
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
        cycles = kz.cycle_chains(t, (j,))
        assert len(cycles) == len(kz.cycle_space(t, (j,)))
        for z in cycles:
            assert boundary(z).is_zero()


def test_homology_dim_is_zero_outside_the_generator_count():
    # K_t = 0 for t < 0 and t > r = 6: no face is grown and nothing is ranked
    kz = KoszulComplex(power_ideal(RingConfig((3,)), 2))
    for t in (-1, 7, 8, 60):
        assert kz.homology_dim(t, 2 * max(t, 0)) == 0
    assert kz._levels == {}


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
    image, keys = kz.boundary_image(1, 4), kz.basis(1, 4)
    assert image
    # each boundary is a cycle: phi of its chain is 0, and it lies in Z_1
    cycles = Echelon(kz.field)
    for z in kz.cycle_chains(1, 4):
        cycles.add(kz.chain_vector(z, 4))
    for col in image:
        assert boundary(KoszulChain(I, 1, {keys[i]: c for i, c in col.items()})).is_zero()
        assert cycles.contains(col)


def test_quotient_coefficients_shrink():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    J = MonomialIdeal(ring, [(0, 3)])
    kz_full = KoszulComplex(I)
    kz_quot = KoszulComplex(I, QQ, J)
    for t in (0, 1, 2):
        for j in range(0, 8):
            assert len(kz_quot.basis(t, j)) <= len(kz_full.basis(t, j))
    # K_0 of the quotient is S/J
    assert len(kz_quot.basis(0, 5)) == quotient_component_dim(J, 5)


def test_coefficient_ideal_must_share_the_ring():
    I = power_ideal(RingConfig((2,)), 2)
    J_other = MonomialIdeal(RingConfig((3,)), [(0, 0, 2)])
    with pytest.raises(ValueError, match="different ring"):
        KoszulComplex(I, J=J_other)


def test_component_ceiling():
    kz = KoszulComplex(power_ideal(RingConfig((2,)), 2), ceiling=8)
    assert len(kz.basis(1, 3)) == 6
    with pytest.raises(InfeasibleError) as exc:
        kz.basis(1, 4)  # three generators times dim S_2 = 3
    assert exc.value.estimate == 9


def _gens(n):
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: 0 < sum(e) <= 3)
    return st.lists(exps, min_size=1, max_size=4)


@settings(max_examples=60)
@given(
    n=st.sampled_from([2, 3]),
    data=st.data(),
    t=st.integers(0, 3),
    degree=st.integers(0, 7),
)
def test_estimate_is_basis_size_for_s_and_bounds_quotients(n, data, t, degree):
    # the size basis checks against the ceiling, read off InfeasibleError at a
    # ceiling one below it: the basis size over S, and the same count, an
    # upper bound, over S/J
    ring = RingConfig((n,))
    I = MonomialIdeal(ring, data.draw(_gens(n)))
    J = MonomialIdeal(ring, data.draw(_gens(n)))
    size = len(KoszulComplex(I).basis(t, degree))

    def estimate(J, ceiling):
        with pytest.raises(InfeasibleError) as exc:
            KoszulComplex(I, J=J, ceiling=ceiling).basis(t, degree)
        return exc.value.estimate

    # a ceiling below the faces of some level K_s, s <= t, refuses that level
    # while it is grown, before the size is checked
    grown = max(len(KoszulComplex(I)._grown_faces(s, (degree,))) for s in range(t + 1))
    if size > grown:
        assert estimate(None, size - 1) == estimate(J, size - 1) == size
    if size >= grown:
        assert len(KoszulComplex(I, ceiling=size).basis(t, degree)) == size
        assert len(KoszulComplex(I, J=J, ceiling=size).basis(t, degree)) <= size
    # no faces outside 0 <= t <= r, so nothing passes even a ceiling of 0
    for kz in (KoszulComplex(I, ceiling=0), KoszulComplex(I, J=J, ceiling=0)):
        assert kz.basis(-1, degree) == [] and kz.basis(I.r + 1, degree) == []


@settings(max_examples=60)
@given(
    n=st.sampled_from([2, 3]),
    data=st.data(),
    field=st.sampled_from([QQ, PrimeField(3), PrimeField(32003)]),
    quotient=st.booleans(),
    t=st.integers(0, 3),
    degree=st.integers(0, 6),
)
def test_boundary_columns_match_the_exterior_differential(n, data, field, quotient, t, degree):
    # column k of phi_t is the coordinate vector of the boundary of basis key k
    ring = RingConfig((n,))
    I = MonomialIdeal(ring, data.draw(_gens(n)))
    J = MonomialIdeal(ring, data.draw(_gens(n))) if quotient else None
    kz = KoszulComplex(I, field, J)
    keys = kz.basis(t, degree)
    columns = kz.boundary_columns(t, degree)
    assert len(columns) == len(keys)
    for (T, w), col in zip(keys, columns):
        image = boundary(KoszulChain(I, t, {(T, w): 1}))
        assert col == kz.chain_vector(image, degree)


def _coarse_homology_dim(kz, t, alpha):
    """dim K_t - rank phi_t - rank phi_{t+1}, ranked on the coarse differentials."""

    def rank(columns):
        ech = Echelon(kz.field)
        for col in columns:
            ech.add(col)
        return ech.rank

    return (
        len(kz.basis(t, alpha))
        - rank(kz.boundary_columns(t, alpha))
        - rank(kz.boundary_columns(t + 1, alpha))
    )


def _ideal(ring, data):
    """A random monomial ideal, or a power of the maximal ideals, whose
    symmetric runs of variables give orbits larger than one fine degree."""
    if data.draw(st.booleans()):
        return power_ideal(ring, data.draw(st.tuples(*[st.integers(1, 2)] * ring.d)))
    return MonomialIdeal(ring, data.draw(_gens(ring.n)))


@settings(max_examples=60)
@given(
    blocks=st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2)]),
    data=st.data(),
    field=st.sampled_from([QQ, PrimeField(2), PrimeField(5)]),
    quotient=st.booleans(),
)
def test_homology_dim_matches_the_coarse_differentials(blocks, data, field, quotient):
    ring = RingConfig(blocks)
    I = _ideal(ring, data)
    J = _ideal(ring, data) if quotient else None
    kz = KoszulComplex(I, field, J)
    negative = (-1,) * ring.d
    for alpha in [negative] + degrees_upto(ring, (5,) if ring.d == 1 else (3, 3)):
        for t in range(0, min(I.r, 4) + 1):
            assert kz.homology_dim(t, alpha) == _coarse_homology_dim(kz, t, alpha)


@settings(max_examples=60)
@given(
    blocks=st.sampled_from([(2,), (3,), (2, 1), (1, 1)]),
    data=st.data(),
    quotient=st.booleans(),
)
def test_coarse_basis_is_the_union_of_the_fine_faces(blocks, data, quotient):
    # (T, w) at alpha is (T, beta - u_T) for a face T at the fine degree beta
    ring = RingConfig(blocks)
    I = _ideal(ring, data)
    J = _ideal(ring, data) if quotient else None
    kz = KoszulComplex(I, J=J)
    for alpha in degrees_upto(ring, (5,) if ring.d == 1 else (3, 3)):
        for t in range(0, min(I.r, 4) + 1):
            fine = []
            for beta in component_basis(ring, alpha):
                # the faces at beta whose residual lies outside J
                for T in kz._fine_faces(t, beta):
                    u_T = [sum(I.gens[i - 1][k] for i in _mask_tuple(T)) for k in range(ring.n)]
                    w = tuple(map(sub, beta, u_T))
                    assert min(w) >= 0
                    fine.append((T, w))
            fine.sort(key=lambda key: (_mask_tuple(key[0]), [-e for e in key[1]]))
            assert kz.basis(t, alpha) == fine


def test_orbit_sizes_sum_to_the_component_dimension():
    ring = RingConfig((3,))
    x3_squared = MonomialIdeal(ring, [(0, 0, 2)])
    complexes = [
        KoszulComplex(power_ideal(ring, 2)),
        KoszulComplex(power_ideal(ring, 1), J=x3_squared),
        KoszulComplex(MonomialIdeal(ring, [(2, 0, 0), (0, 1, 0)])),
        KoszulComplex(power_ideal(RingConfig((2, 2)), (1, 2))),
    ]
    for kz in complexes:
        for alpha in degrees_upto(kz.ring, (7,) * kz.ring.d):
            assert sum(size for _, size in kz._orbits(alpha)) == component_dim(kz.ring, alpha)


def test_runs_are_the_variable_swaps_fixing_i_and_j():
    ring = RingConfig((3,))
    assert KoszulComplex(power_ideal(ring, 2))._runs == [(0, 3)]
    # (x1^2, x2) in three variables: no swap fixes it, not even x2 <-> x3
    assert KoszulComplex(MonomialIdeal(ring, [(2, 0, 0), (0, 1, 0)]))._runs == [
        (0, 1),
        (1, 2),
        (2, 3),
    ]
    # J = (x3^2) breaks the symmetry of m at x3
    J = MonomialIdeal(ring, [(0, 0, 2)])
    assert KoszulComplex(power_ideal(ring, 1), J=J)._runs == [(0, 2), (2, 3)]
    # a run never crosses a block
    assert KoszulComplex(power_ideal(RingConfig((2, 2)), (1, 1)))._runs == [(0, 2), (2, 4)]


def _reference_faces(kz, t, degree, skip=None):
    """(T, degree - deg u_T) for the t-subsets T of the generators other than
    skip with deg u_T <= degree, in lex order, by brute force."""
    fine = len(degree) == kz.ring.n
    gdegs = kz.ideal.gens if fine else [kz.ring.mdeg(g) for g in kz.ideal.gens]
    out = []
    for T in [] if t < 0 else combinations([i for i in range(1, kz.ideal.r + 1) if i != skip], t):
        w = tuple(e - sum(gdegs[i - 1][k] for i in T) for k, e in enumerate(degree))
        if min(w) >= 0:
            out.append((T, w))
    return out


def _mask_tuple(mask):
    return tuple(i for i in range(1, mask.bit_length() + 1) if mask >> i - 1 & 1)


def _tuple_mask(T):
    return sum(1 << i - 1 for i in T)


# exponents on both sides of each field width: 127 fits one byte below its
# guard bit and 128 does not, 255 and 256 fill and pass a whole byte, and
# 2**63 passes the widest memoryview format
EDGES = [0, 1, 2, 63, 64, 127, 128, 255, 256, 32767, 32768, 2**63 - 1, 2**63]


@settings(max_examples=150)
@given(
    blocks=st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 1, 1)]),
    data=st.data(),
    fine=st.booleans(),
)
def test_grown_faces_match_the_brute_force_subsets(blocks, data, fine):
    ring = RingConfig(blocks)
    n = ring.n
    exps = st.one_of(st.integers(0, 3), st.sampled_from(EDGES))
    gens = data.draw(st.lists(st.tuples(*[exps] * n).filter(any), min_size=1, max_size=5))
    kz = KoszulComplex(MonomialIdeal(ring, gens))
    # a degree at or beside the degree of a product of generators, or an edge
    chosen = data.draw(st.lists(st.sampled_from(kz.ideal.gens), max_size=3))
    top = tuple(map(sum, zip(*chosen))) if chosen else (0,) * n
    if not fine:
        top = ring.mdeg(top)
    degree = tuple(
        data.draw(st.one_of(st.sampled_from([e - 1, e, e + 1]), st.sampled_from(EDGES)))
        for e in top
    )
    skip = data.draw(st.sampled_from([None, *range(1, kz.ideal.r + 1)]))
    _, G, _, _, pack = kz._packing(degree)
    for t in range(kz.ideal.r + 2):
        faces = _reference_faces(kz, t, degree)
        if fine:
            assert list(map(_mask_tuple, kz._fine_faces(t, degree))) == [T for T, _ in faces]
        # at a multidegree, the basis from the decoded faces (T, w); past the
        # ceiling, the sum of dim S_w over them
        if len(degree) == ring.d:
            dim = sum(component_dim(ring, w) for _, w in faces)
            if dim <= kz.ceiling:
                want = [(_tuple_mask(T), m) for T, w in faces for m in component_basis(ring, w)]
                assert kz.basis(t, degree) == want
            else:
                with pytest.raises(InfeasibleError) as exc:
                    kz.basis(t, degree)
                assert exc.value.estimate == dim
        want = _reference_faces(kz, t, degree, skip)
        assert kz._grown_faces(t, degree, skip) == [_tuple_mask(T) | pack(w) | G for T, w in want]


def _reference_block_faces(kz, t, beta):
    """The tuple faces T of K_{t-1}, K_t and K_{t+1} that `homology_dim`
    ranks at beta: the star-reduced block over S, the whole block over S/J."""
    v = None if kz.J is not None else kz._apex(t, beta)[0]
    if v is None:
        keep = lambda w: kz.J is None or not kz.J.contains(w)  # noqa: E731
    else:
        keep = lambda w: not all(map(le, kz.ideal.gens[v - 1], w))  # noqa: E731
    return [[T for T, w in _reference_faces(kz, s, beta, v) if keep(w)] for s in (t - 1, t, t + 1)]


def _reference_phi_rank(field, t, targets, sources):
    """Rank of phi_t from tuple faces, with the signs (-1)^pos."""
    ech = Echelon(field)
    if t > 0:
        rows = {F: k for k, F in enumerate(targets)}
        signs = (field.coerce(1), field.coerce(-1))
        for T in sources:
            faces = [T[:pos] + T[pos + 1 :] for pos in range(t)]
            ech.add({rows[F]: signs[pos % 2] for pos, F in enumerate(faces) if F in rows})
    return ech.rank


@settings(max_examples=60)
@given(
    n=st.sampled_from([2, 3]),
    data=st.data(),
    field=st.sampled_from([QQ, PrimeField(3)]),
    quotient=st.booleans(),
)
def test_block_faces_and_ranks_match_the_tuple_faces(n, data, field, quotient):
    ring = RingConfig((n,))
    I = _ideal(ring, data)
    J = _ideal(ring, data) if quotient else None
    kz = KoszulComplex(I, field, J)
    for alpha in range(7):
        for beta in component_basis(ring, alpha):
            for t in range(0, I.r + 1):
                v, empty = kz._apex(t, beta) if J is None else (None, False)
                masks = [kz._fine_faces(s, beta, v) for s in (t - 1, t, t + 1)]
                faces = [list(map(_mask_tuple, level)) for level in masks]
                assert faces == _reference_block_faces(kz, t, beta)
                # a block certified empty from the exponents has no t-face
                assert not empty or masks[1] == []
                # H_t from the Morse complex matches the ranks on the tuple faces
                low, mid, high = faces
                rank = _reference_phi_rank
                want = len(mid) - rank(field, t, low, mid) - rank(field, t + 1, mid, high)
                assert kz.homology_dim(t, beta) == want


@settings(max_examples=80, deadline=None)
@given(
    blocks=st.sampled_from([(2,), (3,), (4,), (2, 1)]),
    data=st.data(),
    field=st.sampled_from([QQ, PrimeField(2)]),
)
def test_certified_blocks_are_empty_and_skipped(blocks, data, field):
    # mixed-degree ideals: a block whose star-reduced K_t `_apex` certifies
    # empty has no t-face, and homology_dim, which skips it unbuilt, equals
    # the ranks on the reference faces at every fine degree
    ring = RingConfig(blocks)
    exps = st.tuples(*[st.integers(0, 2)] * ring.n).filter(any)
    I = MonomialIdeal(ring, data.draw(st.lists(exps, min_size=1, max_size=6)))
    kz = KoszulComplex(I, field)
    for q in range(8 - ring.n):
        for beta in component_basis(RingConfig((ring.n,)), q):
            for t in range(I.r + 1):
                v, empty = kz._apex(t, beta)
                low, mid, high = _reference_block_faces(kz, t, beta)
                if empty:
                    assert mid == [] and kz._fine_faces(t, beta, v) == []
                rank = _reference_phi_rank
                want = len(mid) - rank(field, t, low, mid) - rank(field, t + 1, mid, high)
                assert kz.homology_dim(t, beta) == want


def test_certified_blocks_grow_no_faces():
    # the off-strand entries of v_2(P^3), rows <= 5, are 0 (its one entry past
    # the linear strand is beta_{6,8} = 1); all but 12 of the 168 (fine degree,
    # apex) face levels their blocks would grow are certified empty unbuilt
    kz = KoszulComplex(power_ideal(RingConfig((4,)), 2))
    entries = [(3, 5), (4, 6), (5, 7), (5, 8)]  # i + 2 <= j <= i + ceil(i / 2)
    assert [kz.homology_dim(i, 2 * j) for i, j in entries] == [0, 0, 0, 0]
    assert len(kz._levels) == 12


@settings(max_examples=200, deadline=None)
@given(
    spec=st.one_of(
        st.sampled_from([((2,), (2,)), ((2,), (3,)), ((3,), (2,)), ((4,), (2,)), ((3,), (3,)),
                         ((2, 2), (1, 1)), ((2, 2), (1, 2)), ((2, 3), (1, 1)), ((3, 3), (1, 1))]),
        st.tuples(st.sampled_from([(2,), (3,), (4,), (2, 1), (2, 2)]), st.none()),
    ),
    data=st.data(),
    field=st.sampled_from([QQ, PrimeField(2), PrimeField(3)]),
)
def test_morse_dim_matches_the_plain_ranks(spec, data, field):
    # Segre-Veronese ideals m^c by their first two strands, t = j - 1 and j - 2
    # at degree jc, and mixed-degree ideals in 2-4 variables, at a random fine
    # degree: H_t from the element matchings of the whole block, and from
    # homology_dim (apex star first), equals the ranks of the whole block on
    # the tuple faces
    blocks, c = spec
    ring = RingConfig(blocks)
    if c is None:
        exps = st.tuples(*[st.integers(0, 2)] * ring.n).filter(any)
        I = MonomialIdeal(ring, data.draw(st.lists(exps, min_size=3, max_size=7)))
        beta = data.draw(st.tuples(*[st.integers(1, 4)] * ring.n))
        t = data.draw(st.integers(1, min(I.r, 3)))
    else:
        I = power_ideal(ring, c)
        j = data.draw(st.integers(2, 6))
        beta = data.draw(st.sampled_from(component_basis(ring, tuple(j * a for a in c))))
        t = min(I.r, max(1, j - data.draw(st.sampled_from([1, 2]))))
    kz = KoszulComplex(I, field)
    low, mid, high = ([T for T, _ in _reference_faces(kz, s, beta)] for s in (t - 1, t, t + 1))
    rank = _reference_phi_rank
    want = len(mid) - rank(field, t, low, mid) - rank(field, t + 1, mid, high)
    levels = [kz._fine_faces(s, beta) for s in (t - 1, t, t + 1)]
    assert kz._morse_dim(t, beta, levels, homology._element_matching(levels)) == want
    assert kz.homology_dim(t, beta) == want


def _spy_echelons(monkeypatch) -> list:
    """The Echelons that `homology` builds from now on, collected as they are made."""
    built = []

    class Spy(Echelon):
        def __init__(self, field):
            super().__init__(field)
            built.append(self)

    monkeypatch.setattr(homology, "Echelon", Spy)
    return built


def test_blocks_with_every_t_face_paired_build_no_echelon(monkeypatch):
    # the v_2(P^3) entries of test_certified_blocks_grow_no_faces: of the 12
    # blocks grown there, the element matchings pair every t-face of 11, which
    # are then 0 with no rank; one Echelon ranks the block at (3, 3, 3, 3) for
    # (4, 6), which keeps one critical 4-face
    built = _spy_echelons(monkeypatch)
    kz = KoszulComplex(power_ideal(RingConfig((4,)), 2))
    ranked = []
    for i, j in [(3, 5), (4, 6), (5, 7), (5, 8)]:
        assert kz.homology_dim(i, 2 * j) == 0
        ranked.append(len(built))
    assert ranked == [0, 1, 1, 1] and len(kz._levels) == 12


def test_a_cyclic_matching_is_refused():
    # vertices 1, 2, 3 and edges 12, 23, 13 and 14 (its vertex 4 left out, as
    # a star would): the pairs 1 < 12, 2 < 23, 3 < 13 leave the edge 14
    # critical, and each pair's edge has the next pair's vertex, a cycle
    kz = KoszulComplex(power_ideal(RingConfig((4,)), 1))
    levels = [[0b0001, 0b0010, 0b0100], [0b0011, 0b0110, 0b0101, 0b1001], []]
    with pytest.raises(RuntimeError, match="cycle"):
        kz._morse_dim(1, (1,) * 4, levels, {0b0001: 0b0011, 0b0010: 0b0110, 0b0100: 0b0101})
    # an acyclic matching of the same faces keeps H_1: 4 edges, rank 3
    assert kz._morse_dim(1, (1,) * 4, levels, {0b0001: 0b0011, 0b0010: 0b0110}) == 1


def _reference_orbits(kz, alpha):
    """_orbits by filter: every monomial of multidegree alpha, in graded lex
    order, kept when it does not increase along any run."""
    for beta in component_basis(kz.ring, alpha):
        if all(beta[k] >= beta[k + 1] for a, b in kz._runs for k in range(a, b - 1)):
            yield beta, prod(homology._arrangements(beta[a:b]) for a, b in kz._runs)


@settings(max_examples=100)
@given(
    blocks=st.sampled_from([(1,), (3,), (4,), (2, 1), (2, 3), (1, 1, 2)]),
    data=st.data(),
    quotient=st.booleans(),
)
def test_orbits_enumerate_the_filtered_compositions_in_order(blocks, data, quotient):
    ring = RingConfig(blocks)
    I = _ideal(ring, data)
    J = _ideal(ring, data) if quotient else None
    kz = KoszulComplex(I, J=J)
    alpha = data.draw(st.tuples(*[st.integers(-1, 7)] * ring.d))
    assert list(kz._orbits(alpha)) == list(_reference_orbits(kz, alpha))


def test_homology_dim_enumerates_no_coarse_component():
    # Betti numbers of v_3(P^2) rows <= 4, ranked per fine degree only
    kz = KoszulComplex(power_ideal(RingConfig((3,)), 3))
    assert kz.homology_dim(1, 6) == 27  # the quadrics: C(11, 2) - dim S_6
    for i in range(1, 5):
        for j in range(i, i + 3):
            kz.homology_dim(i, 3 * j)
    assert kz._basis == {} and kz._index == {}
    # the face levels are keyed by (degree, generator left out): every degree
    # is fine, and every block was star-reduced
    assert kz._levels and all(
        len(degree) == kz.ring.n and v is not None for degree, v in kz._levels
    )


def test_homology_dim_ranks_fine_blocks_under_the_ceiling():
    # m^4 in three variables at degree 24: the coarse K_4 (61,425) is over the
    # ceiling, the fine blocks ranked (23,595 faces) are not; beta_{5,6} of v_4(P^2)
    kz = KoszulComplex(power_ideal(RingConfig((3,)), 4))
    with pytest.raises(InfeasibleError) as exc:
        kz.basis(4, 24)
    assert exc.value.estimate == 61_425
    assert kz.homology_dim(5, 24) == 7095


def test_homology_dim_checks_ceiling_before_building(monkeypatch):
    # v_6(P^5) at (2, 3): low degrees have small stars, so the star-reduced
    # fine blocks of K_1, K_2 and K_3 still pass the ceiling
    built = _spy_echelons(monkeypatch)
    kz = KoszulComplex(power_ideal(RingConfig((6,)), 6))
    with pytest.raises(InfeasibleError) as exc:
        kz.homology_dim(2, 18)
    assert kz.ceiling < exc.value.estimate <= 50_880
    assert str(exc.value).endswith("over the ceiling 50000")
    assert built == [] and kz._basis == {}


def test_homology_dim_at_a_fine_degree_guards(monkeypatch):
    # m^2 in three variables, r = 6; at the fine degree (2, 2, 2) the
    # star-reduced block of K_1, K_2 and K_3 has 2 + 5 + 1 faces and H_2 has
    # dimension 2
    ring = RingConfig((3,))
    kz = KoszulComplex(power_ideal(ring, 2))
    for beta in [(2, 2), (2, 2, 2, 0)]:
        with pytest.raises(ValueError):
            kz.homology_dim(2, beta)
    for t in (-1, 7, 8, 60):
        assert kz.homology_dim(t, (2, 2, 2)) == 0
    assert kz._levels == {}
    built = _spy_echelons(monkeypatch)
    tight = KoszulComplex(power_ideal(ring, 2), ceiling=7)
    with pytest.raises(InfeasibleError) as exc:
        tight.homology_dim(2, (2, 2, 2))
    assert exc.value.estimate == 8
    assert str(exc.value) == (
        "the fine blocks of K_1, K_2 and K_3 at degree (2, 2, 2) have at least 8 faces, "
        "over the ceiling 7"
    )
    assert built == []
    assert KoszulComplex(power_ideal(ring, 2), ceiling=8).homology_dim(2, (2, 2, 2)) == 2
    # a tuple of length d is a multidegree: (6,) is beta_{2,3} = 8 of v_2(P^2)
    assert kz.homology_dim(2, (6,)) == 8


def test_face_growth_stops_at_the_ceiling():
    # m^2 in four variables, r = 10: every t-subset of the generators fits the
    # degree 8, so level t has C(10, t) faces; with the ceiling at 100, level 3
    # (120 faces) is refused while it is grown, and only levels 0..2 are kept
    ring = RingConfig((4,))
    kz = KoszulComplex(power_ideal(ring, 2), ceiling=100)
    assert len(kz._grown_faces(2, (8,))) == 45
    with pytest.raises(InfeasibleError) as exc:
        kz._grown_faces(4, (8,))
    # refused after a slice of level 2, before the whole level is grown
    assert 100 < exc.value.estimate < 120
    assert str(exc.value) == (
        f"K_3 has at least {exc.value.estimate} faces at degree (8,), over the ceiling 100"
    )
    assert len(kz._levels[(8,), None]) == 3
    kz.ceiling = 1000
    assert kz._grown_faces(4, (8,)) == KoszulComplex(power_ideal(ring, 2))._grown_faces(4, (8,))


@settings(max_examples=40)
@given(
    blocks=st.sampled_from([(2,), (3,), (2, 1), (1, 2), (2, 2)]),
    data=st.data(),
    field=st.sampled_from([QQ, PrimeField(2), PrimeField(5)]),
    quotient=st.booleans(),
)
def test_homology_dim_is_the_sum_over_its_fine_degrees(blocks, data, field, quotient):
    # brute force for the orbit weights: every fine degree beta with block
    # sums alpha ranked on its own, in a complex of its own
    ring = RingConfig(blocks)
    I = _ideal(ring, data)
    J = _ideal(ring, data) if quotient else None
    fine, coarse = KoszulComplex(I, field, J), KoszulComplex(I, field, J)
    for alpha in degrees_upto(ring, (4,) if ring.d == 1 else (2, 2)):
        betas = component_basis(ring, alpha)
        for t in range(-1, min(I.r, 4) + 2):
            total = sum(fine.homology_dim(t, beta) for beta in betas)
            assert coarse.homology_dim(t, alpha) == total


def test_star_reduced_quartic_veronese_strand_fits_the_ceiling():
    # v_4(P^2) over QQ: the linear strand beta_{i,i+1} for i = 1..6 and two
    # zero entries of the next row; the plain fine blocks at (5, 7) and (6, 8)
    # have 66,987 and 118,268 faces, the star-reduced ones 8,752 and 11,245
    kz = KoszulComplex(power_ideal(RingConfig((3,)), 4), QQ)
    strand = [kz.homology_dim(i, 4 * (i + 1)) for i in range(1, 7)]
    assert strand == [75, 536, 1947, 4488, 7095, 7920]
    assert kz.homology_dim(5, 28) == 0
    assert kz.homology_dim(6, 32) == 0


def test_cycle_space_and_homology_dim():
    kz = KoszulComplex(power_ideal(RingConfig((2,)), 2))
    assert len(kz.cycle_space(1, 3)) == 2
    assert kz.homology_dim(1, 3) == 2


def test_free_module_tor():
    # Z_0(I; S) = K_0 = S for any I
    ring = RingConfig((2,))
    kz = KoszulComplex(power_ideal(ring, 2))
    M = cycle_module(kz, 0)
    assert tor_dims(M, 0, 0) == 1
    for j in range(1, 5):
        assert tor_dims(M, 0, j) == 0
        assert tor_dims(M, 1, j) == 0
    assert len(kz.cycle_space(0, 3)) == component_dim(ring, 3)


def test_quotient_ring_betti_m_squared():
    # S/m^2 = H_0(m^2; S) in two variables: 0 -> S(-3)^2 -> S(-2)^3 -> S -> S/m^2
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    M = homology_module(KoszulComplex(I), 0)
    assert tor_dims(M, 0, 0) == 1
    assert tor_dims(M, 1, 2) == 3
    assert tor_dims(M, 2, 3) == 2
    assert tor_dims(M, 1, 3) == 0
    assert tor_dims(M, 2, 4) == 0


def test_ideal_module_generators():
    # the minimal generators of I are Tor_1(S/I, K), with S/I = H_0(I; S)
    ring = RingConfig((2,))
    I = MonomialIdeal(ring, [(2, 0), (0, 3)])
    M = homology_module(KoszulComplex(I), 0)
    assert [j for j in range(0, 7) if tor_dims(M, 1, j) > 0] == [2, 3]
    assert tor_dims(M, 1, 2) == 1 and tor_dims(M, 1, 3) == 1


def test_cycle_and_homology_modules():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    kz = KoszulComplex(I)
    Z = cycle_module(kz, 1)
    H = homology_module(kz, 1)
    assert len(kz.cycle_space(1, 3)) == 2 and len(kz.cycle_space(1, 4)) == 4
    assert kz.homology_dim(1, 3) == 2 and kz.homology_dim(1, 4) == 1
    assert kz.homology_dim(1, 5) == 0
    # Z_1 here is free on two degree-3 generators
    assert tor_dims(Z, 0, 3) == 2
    assert tor_violations(Z, 3) == []
    assert tor_violations(Z, 2) == [(0, 3, 2)]
    # H_1 has regularity 4 = t(c+1) + c - 1
    assert tor_violations(H, 4) == []
    assert tor_violations(H, 3) != []
    assert tor_dims(H, 0, 4) == 0  # generated in degree 3


def test_tor_violations_scans_up_to_the_stability_degree():
    # S/I for I = (x1^5, x2): a = (5, 1), and the entries of reg S/I = 4 sit at
    # j - i = 4, past any fixed window above bound = 1
    ring = RingConfig((2,))
    M = homology_module(KoszulComplex(MonomialIdeal(ring, [(5, 0), (0, 1)])), 0)
    assert M.stable_degree == 6
    assert tor_violations(M, 1) == [(1, 5, 1), (2, 6, 1)]
    assert tor_violations(M, 1, i_max=1) == [(1, 5, 1)]
    # a bound at or past |a| scans nothing: Tor is 0 there by theorem
    assert tor_violations(M, 4) == [] and tor_violations(M, 6) == []


def _grid_violations(M, bound, i_max=None):
    """tor_violations as the (j - i, i) grid of tor_dims calls: each fine
    degree at |beta| = j is scanned once per i."""
    n = M.ring.n
    if i_max is None:
        i_max = n
    out = []
    for q in range(bound + 1, M.stable_degree + 1):
        for i in range(0, min(i_max, n) + 1):
            d = tor_dims(M, i, i + q)
            if d > 0:
                out.append((i, i + q, d))
    return out


@settings(max_examples=60)
@given(
    n=st.sampled_from([2, 3]),
    data=st.data(),
    quotient=st.booleans(),
    over_sj=st.booleans(),
    field=st.sampled_from([QQ, PrimeField(5)]),
)
def test_tor_violations_matches_the_tor_dims_grid(n, data, quotient, over_sj, field):
    # one visit per fine degree, summed per (i, j), gives the entries and the
    # order of the grid, for Z_t and H_t over S and S/J
    ring = RingConfig((n,))
    I = MonomialIdeal(ring, data.draw(_gens(n)))
    J = MonomialIdeal(ring, data.draw(_gens(n))) if over_sj else None
    t = data.draw(st.integers(0, min(I.r, 2)))
    kz = KoszulComplex(I, field, J)
    M = GradedModule(kz, t, quotient)
    bound = data.draw(st.integers(-1, M.stable_degree))
    i_max = data.draw(st.one_of(st.none(), st.integers(0, n + 1)))
    want = _grid_violations(GradedModule(kz, t, quotient), bound, i_max)
    assert tor_violations(M, bound, i_max) == want


def test_tor_scan_ranks_each_delta_once_per_fine_degree(monkeypatch):
    # delta_{i+1} at beta serves Tor_i and Tor_{i+1}: one tor_violations call
    # ranks each delta_i at each beta once, and exactly where the i- or
    # (i-1)-chains at beta are nonzero.  A rank echelon is one not built by a
    # module piece; its delta and beta are read off the frames of the rank
    # step and of `_tor_at`.
    ranked = []

    class Spy(Echelon):
        def __init__(self, field):
            super().__init__(field)
            frame = sys._getframe(1)
            if frame.f_code.co_name == "piece":
                return
            i, outer = frame.f_locals["i"], frame
            while outer.f_code.co_name != "_tor_at":
                outer = outer.f_back
            ranked.append((id(outer.f_locals["M"]), outer.f_locals["beta"], i))

    monkeypatch.setattr(regularity, "Echelon", Spy)
    ring = RingConfig((3,))
    kz = KoszulComplex(power_ideal(ring, 2))
    modules = [(homology_module(kz, 1), -1, None), (cycle_module(kz, 1), 1, 2)]
    for seed in range(4):
        _, checks = _tor_checks(_regb, random.Random(seed), QQ)
        modules += [(M, bound, i_max) for _, M, bound, i_max in checks]
    for M, bound, i_max in modules:
        tor_violations(M, bound, i_max)
    assert ranked and len(ranked) == len(set(ranked))
    # the deltas that a nonzero Tor_i at beta needs: delta_i and delta_{i+1}
    needed = set()
    for M, bound, i_max in modules:
        top = M.ring.n if i_max is None else min(i_max, M.ring.n)
        for j in range(bound + 1, M.stable_degree + 1):
            for beta in _bounded_compositions(j, M.box):
                support = [k for k, e in enumerate(beta) if e]
                for i in range(0, min(top, j - bound - 1) + 1):
                    chains = sum(
                        len(M.piece(tuple(e - (k in A) for k, e in enumerate(beta)))[1])
                        for A in combinations(support, i)
                    )
                    if chains:
                        needed |= {(id(M), beta, s) for s in (i, i + 1) if 1 <= s <= len(support)}
    assert set(ranked) == needed


def test_tor_on_a_box_wider_than_one_byte():
    # S/(x^130, y): a = (130, 1); the pieces at gamma with gamma_0 >= 128,
    # past one byte below the guard bit, grow their faces with two-byte fields
    ring = RingConfig((2,))
    M = homology_module(KoszulComplex(MonomialIdeal(ring, [(130, 0), (0, 1)])), 0)
    assert M.box == (130, 1)
    assert tor_violations(M, 0) == [(1, 130, 1), (2, 131, 1)]
    wide = [gamma for gamma in M._pieces if gamma[0] >= 128]
    assert wide and all(M.kz._packing(gamma)[0] == 2 for gamma in wide)
    assert all((gamma, None) in M.kz._levels for gamma in wide)


@settings(max_examples=150)
@given(
    n=st.sampled_from([1, 2, 3]),
    data=st.data(),
    quotient=st.booleans(),
    over_sj=st.booleans(),
)
def test_module_faces_match_the_brute_force_subsets(n, data, quotient, over_sj):
    # the faces of K_s at gamma <= box, grown at gamma, against every
    # s-subset T with u_T <= gamma and gamma - u_T outside J
    ring = RingConfig((n,))
    exps = st.one_of(st.integers(0, 3), st.sampled_from(EDGES))
    gens = st.lists(st.tuples(*[exps] * n).filter(any), min_size=1, max_size=4)
    I = MonomialIdeal(ring, data.draw(gens))
    J = MonomialIdeal(ring, data.draw(gens)) if over_sj else None
    kz = KoszulComplex(I, QQ, J)
    t = data.draw(st.integers(0, min(I.r, 2)))
    M = GradedModule(kz, t, quotient)
    # per coordinate, an end, the middle or an edge of [0, a_k]
    ends = [sorted({0, a // 2, max(a - 1, 0), a} | {e for e in EDGES if e <= a}) for a in M.box]
    gamma = tuple(data.draw(st.sampled_from(values)) for values in ends)
    for s in range(t - 1, t + 3):
        want = [T for T, w in _reference_faces(kz, s, gamma) if J is None or not J.contains(w)]
        assert list(map(_mask_tuple, M.kz._fine_faces(s, gamma))) == want


def test_quotient_coefficients_tor():
    # H_0(I; S/J) = S/(I + J) and Z_0(I; S/J) = S/J = H_0(J; S): the same
    # modules built once through the coefficients and once through generators
    rng = random.Random(7)
    for field in (QQ, PrimeField(5)):
        for _ in range(8):
            ring = RingConfig((rng.choice([2, 3]),))
            I = random_monomial_ideal(rng, ring, 3, 3)
            J = random_monomial_ideal(rng, ring, 3, 3)
            kz = KoszulComplex(I, field, J)
            IJ = MonomialIdeal(ring, I.gens + J.gens)
            pairs = [
                (homology_module(kz, 0), homology_module(KoszulComplex(IJ, field), 0)),
                (cycle_module(kz, 0), homology_module(KoszulComplex(J, field), 0)),
            ]
            for M, N in pairs:
                for j in range(0, 8):
                    for i in range(0, ring.n + 1):
                        assert tor_dims(M, i, j) == tor_dims(N, i, j)


def test_cycle_basis_free_columns():
    # GradedModule reads Z-coordinates off the free columns of kernel_basis,
    # each vector's free column being its largest
    rng = random.Random(33)
    for field in (QQ, PrimeField(5)):
        for _ in range(15):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, RingConfig((n,)), 3, 4)
            kz = KoszulComplex(I, field)
            t = rng.randint(0, min(3, I.r))
            vecs = kernel_basis(kz.boundary_columns(t, (rng.randint(t, 3 * t + 3),)), field)
            free = [max(v) for v in vecs]
            assert len(set(free)) == len(vecs)
            for b, v in enumerate(vecs):
                assert v[free[b]] == 1
                assert all(f not in v for a, f in enumerate(free) if a != b)
            # a combination of the basis has its coefficients on the free columns
            coeffs = [field.coerce(rng.randint(-3, 3)) for _ in vecs]
            z = {}
            for c, v in zip(coeffs, vecs):
                for col, x in v.items():
                    z[col] = field.coerce(z.get(col, 0) + c * x)
            assert [z.get(f, 0) for f in free] == coeffs


def test_integer_complex_stays_in_ints(monkeypatch):
    # the boundary matrices of K(I, S) have entries +-1 and here every pivot is
    # a unit, so over QQ no kernel vector and no echelon row needs a Fraction
    rows = []
    add = Echelon.add

    def spy(self, row):
        grew = add(self, row)
        rows.extend(self.rows.values())
        return grew

    ring = RingConfig((3,))
    ideals = [
        power_ideal(RingConfig((2,)), 3),
        MonomialIdeal(ring, [(2, 0, 0), (1, 1, 0), (0, 1, 2)]),
        MonomialIdeal(ring, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]),
    ]
    for I in ideals:
        kz = KoszulComplex(I, QQ)
        for t in (1, 2, 3):
            for j in range(0, 10):
                for v in kz.cycle_space(t, j):
                    assert all(type(x) is int for x in v.values())
        monkeypatch.setattr(Echelon, "add", spy)
        for t in (1, 2, 3):
            for M in (cycle_module(kz, t), homology_module(kz, t)):
                for i in range(0, I.ring.n + 1):
                    for j in range(0, 10):
                        tor_dims(M, i, j)
        monkeypatch.undo()
    assert rows and all(type(x) is int for row in rows for x in row.values())


def test_gfp_matches_rationals_here():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    Zq = cycle_module(KoszulComplex(I, QQ), 1)
    Zp = cycle_module(KoszulComplex(I, PrimeField(32003)), 1)
    for i in range(0, 3):
        for j in range(0, 7):
            assert tor_dims(Zq, i, j) == tor_dims(Zp, i, j)


def _eliahou_kervaire(n, c, k, j):
    """dim Tor_k(S/m^c, K)_j from the Eliahou-Kervaire resolution of m^c."""
    if k == 0:
        return int(j == 0)
    if k > n or j != c + k - 1:
        return 0
    return comb(c + n - 1, c + k - 1) * comb(c + k - 2, k - 1)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(3)], ids=str)
def test_tor_of_power_ideals_matches_eliahou_kervaire(field):
    for n in (2, 3):
        ring = RingConfig((n,))
        for c in (1, 2, 3):
            kz = KoszulComplex(power_ideal(ring, c), field)
            quotient, z1 = homology_module(kz, 0), cycle_module(kz, 1)
            for j in range(0, c + n + 2):
                for i in range(0, n + 2):
                    assert tor_dims(quotient, i, j) == _eliahou_kervaire(n, c, i, j)
                    # Z_1 is the second syzygy module of S/m^c
                    assert tor_dims(z1, i, j) == _eliahou_kervaire(n, c, i + 2, j)


@settings(max_examples=40)
@given(
    n=st.sampled_from([2, 3]),
    data=st.data(),
    quotient=st.booleans(),
    over_sj=st.booleans(),
)
def test_tor_vanishes_past_the_stability_degree(n, data, quotient, over_sj):
    ring = RingConfig((n,))
    I = MonomialIdeal(ring, data.draw(_gens(n)))
    J = MonomialIdeal(ring, data.draw(_gens(n))) if over_sj else None
    t = data.draw(st.integers(0, min(I.r, 2)))
    kz = KoszulComplex(I, QQ, J)
    M = GradedModule(kz, t, quotient)
    top = M.stable_degree
    kernels = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "kernel_basis", lambda cols, field: kernels.append(cols))
        for j in range(top + 1, top + 4):
            for i in range(0, n + 1):
                assert tor_dims(M, i, j) == 0
    # nothing was built: no piece and no kernel
    assert M._pieces == {} and kernels == []
    # the same module over the same complex with the box, and so the rule, lifted
    full = GradedModule(kz, t, quotient)
    full.box = tuple(a + 3 for a in M.box)
    for j in range(0, top + 4):
        for i in range(0, n + 1):
            assert tor_dims(M, i, j) == tor_dims(full, i, j)


def test_stability_degree_is_attained():
    # S/(x^2, y^2) = Z_0(I; S/J) has Tor_2 in degree 4 = |a|, and so has
    # H_0(I; S) = S/I for I = (x^2, y^2)
    ring = RingConfig((2,))
    I = MonomialIdeal(ring, [(1, 0), (0, 1)])
    J = MonomialIdeal(ring, [(2, 0), (0, 2)])
    for M in (
        cycle_module(KoszulComplex(I, QQ, J), 0),
        homology_module(KoszulComplex(J), 0),
    ):
        assert M.stable_degree == 4
        assert tor_dims(M, 2, 4) == 1


def _coarse_tor(kz, t, quotient, i, j):
    """dim Tor_i(M, K)_j for M = Z_t(I, M') or H_t(I, M') from the whole
    coarse pieces: Z_q = kz.cycle_space, B_q from kz.boundary_image, x_k z for
    every k and C(n, i) dim M_q chains, with no box."""
    n, f = kz.ring.n, kz.field

    def piece(q):
        Z, B = kz.cycle_space(t, q), Echelon(f)
        if quotient:
            pos = {max(v): b for b, v in enumerate(Z)}
            for col in kz.boundary_image(t, q):
                B.add({pos[c]: v for c, v in col.items() if c in pos})
        return Z, B

    def var_rank(i, q):
        if not 1 <= i <= n or q < 0:
            return 0
        (Z, B), (nxt, nB) = piece(q), piece(q + 1)
        keys, nxt_keys = kz.basis(t, q), kz.basis(t, q + 1)
        pos = {nxt_keys[max(v)]: b for b, v in enumerate(nxt)}
        offset = {A: a * len(nxt) for a, A in enumerate(combinations(range(n), i - 1))}
        ech = Echelon(f)
        for off in offset.values():
            for row in nB.rows.values():
                ech.add({off + c: v for c, v in row.items()})
        seeded = ech.rank
        for b, z in enumerate(Z):
            if b in B.rows:
                continue
            for A in combinations(range(n), i):
                col = {}
                for p, k in enumerate(A):
                    off = offset[A[:p] + A[p + 1 :]]
                    for c, v in z.items():
                        T, w = keys[c]
                        b2 = pos.get((T, w[:k] + (w[k] + 1,) + w[k + 1 :]))
                        if b2 is not None:
                            col[off + b2] = f.coerce(-v) if p % 2 else v
                ech.add(col)
        return ech.rank - seeded

    q = j - i
    if not 0 <= i <= n or q < 0:
        return 0
    Z, B = piece(q)
    return comb(n, i) * (len(Z) - B.rank) - var_rank(i, q) - var_rank(i + 1, q - 1)


@settings(max_examples=40)
@given(
    n=st.sampled_from([2, 3, 4]),
    data=st.data(),
    quotient=st.booleans(),
    over_sj=st.booleans(),
    field=st.sampled_from([QQ, PrimeField(5)]),
)
def test_box_tor_matches_the_coarse_tor(n, data, quotient, over_sj, field):
    # the box [0, a] drops no Betti number: Tor of the module built on the box
    # equals Tor of the whole coarse pieces in every degree up to |a| + 2
    ring = RingConfig((n,))
    I = MonomialIdeal(ring, data.draw(_gens(n)))
    J = MonomialIdeal(ring, data.draw(_gens(n))) if over_sj else None
    t = data.draw(st.integers(0, min(I.r, 2)))
    kz = KoszulComplex(I, field, J)
    M = GradedModule(kz, t, quotient)
    for j in range(0, M.stable_degree + 3):
        for i in range(0, n + 1):
            assert tor_dims(M, i, j) == _coarse_tor(kz, t, quotient, i, j)


def _fine_degree(I, key):
    T, w = key
    return tuple(map(sum, zip(w, *(I.gens[i - 1] for i in _mask_tuple(T)))))


def test_tor_suites_build_only_box_pieces(monkeypatch):
    # regb (Z_t and H_t over S) and sato (Z_t over S/J) cases: the Tor scan
    # builds no coarse basis or cycle space, only fine pieces inside the box,
    # each of them on faces e_T with u_T <= gamma
    def refuse(*args):
        raise AssertionError("coarse piece built")

    monkeypatch.setattr(KoszulComplex, "basis", refuse)
    monkeypatch.setattr(KoszulComplex, "cycle_space", refuse)
    built = 0
    for build in (_regb, _sato):
        for seed in range(12):
            _, checks = _tor_checks(build, random.Random(seed), QQ)
            for _, M, bound, i_max in checks:
                tor_violations(M, bound, i_max)
                for gamma, (coords, reps, _) in M._pieces.items():
                    assert all(map(le, gamma, M.box))
                    built += len(coords)
                    for T in coords.keys() | {T for z in reps for T in z}:
                        u_T = _fine_degree(M.kz.ideal, (T, (0,) * M.ring.n))
                        assert all(map(le, u_T, gamma))
    assert built > 0


def test_tor_scan_filters_each_fine_face_list_once(monkeypatch):
    # the ceiling guard and the piece at gamma read one list of faces of K_s,
    # filtered by J once: the faces are fetched once per (complex, s, gamma)
    fetched = []
    grown_faces = KoszulComplex._grown_faces

    def spy(self, t, degree, skip=None):
        fetched.append((id(self), t, degree, skip))
        return grown_faces(self, t, degree, skip)

    monkeypatch.setattr(KoszulComplex, "_grown_faces", spy)
    kept = []  # the complexes stay alive, so that no id is reused
    for build in (_regb, _sato):
        for seed in range(12):
            _, checks = _tor_checks(build, random.Random(seed), QQ)
            for _, M, bound, i_max in checks:
                tor_violations(M, bound, i_max)
                kept.append(M.kz)
    assert fetched and len(fetched) == len(set(fetched))


def test_box_piece_checks_the_ceiling_before_any_kernel():
    ring = RingConfig((2,))
    I = MonomialIdeal(ring, [(2, 0), (1, 1), (0, 3)])
    box = GradedModule(KoszulComplex(I), 1, False).box
    # the keys of K_1 in degree 4 whose fine degree lies in the box: the faces
    # the ceiling counts there, fewer than the whole component
    coarse = KoszulComplex(I).basis(1, 4)
    keys = sum(all(map(le, _fine_degree(I, key), box)) for key in coarse)
    assert keys < len(coarse)
    gamma = (2, 2)  # a fine degree of degree 4 in the box, where Z_1 is nonzero
    kernels = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "kernel_basis", lambda cols, field: kernels.append(cols))
        M = GradedModule(KoszulComplex(I, ceiling=keys - 1), 1, False)
        with pytest.raises(InfeasibleError) as exc:
            M.piece(gamma)
    assert exc.value.estimate == keys
    assert kernels == [] and M._pieces == {}
    # at the box's own count the piece is built, though K_1 is larger
    assert GradedModule(KoszulComplex(I, ceiling=keys), 1, False).piece(gamma)[1]


def _reference_span(kz, chains, alpha, stop=None):
    """span_multiples built chain by chain: each multiple w g as a KoszulChain,
    read into coordinates by chain_vector."""
    ech = Echelon(kz.field)
    for beta, g in chains:
        gap = tuple(a - b for a, b in zip(alpha, beta))
        if min(gap) < 0:
            continue
        for w in component_basis(kz.ring, gap):
            vec = kz.chain_vector(g.scale_monomial(w), alpha)
            if vec and ech.add(vec) and ech.rank == stop:
                return ech
    return ech


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("stop", [None, 1, 2])
def test_span_multiples_matches_the_chain_by_chain_reference(field, quotient, stop):
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)  # generators x^2, xy, y^2 = u_1, u_2, u_3
    J = MonomialIdeal(ring, [(3, 0)])
    kz = KoszulComplex(I, field, J if quotient else None)
    # 5 is 0 in GF(5); x * x^2 = x^3 dies in S/(x^3)
    g = KoszulChain(I, 1, {(0b001, (1, 0)): 5, (0b010, (0, 1)): 1, (0b100, (1, 0)): -3})
    h = KoszulChain(I, 2, {(0b011, (0, 0)): 10, (0b110, (0, 0)): Fraction(1, 2)})
    chains = [((3,), g), ((4,), h), ((4,), g.scale_monomial((1, 0)))]
    for alpha in range(2, 7):
        for t in (1, 2):
            picked = [(beta, c) for beta, c in chains if c.t == t]
            got = kz.span_multiples(picked, alpha, stop=stop)
            assert got.rows == _reference_span(kz, picked, (alpha,), stop).rows
    if quotient:
        assert kz.J.contains((3, 0))
    # chain_vector keeps no coordinate that is 0 in the field
    vec = kz.chain_vector(g, 3)
    assert all(vec.values()) and len(vec) == (2 if field.characteristic == 5 else 3)


@settings(max_examples=60)
@given(
    n=st.sampled_from([2, 3]),
    data=st.data(),
    field=st.sampled_from([QQ, PrimeField(5)]),
    quotient=st.booleans(),
    t=st.integers(1, 2),
    stop=st.sampled_from([None, 1, 3]),
)
def test_span_multiples_matches_the_reference_on_random_chains(n, data, field, quotient, t, stop):
    ring = RingConfig((n,))
    I = MonomialIdeal(ring, data.draw(_gens(n)))
    J = MonomialIdeal(ring, data.draw(_gens(n))) if quotient else None
    kz = KoszulComplex(I, field, J)
    chains = []
    for j in data.draw(st.lists(st.integers(0, 5), max_size=3)):
        # keys over S, so that some terms w m of a multiple die in S/J
        keys = KoszulComplex(I).basis(t, j)
        if keys:
            picked = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
            values = st.sampled_from([1, -1, 2, 5, -10, Fraction(3, 2)])
            terms = {key: data.draw(values) for key in picked}
            chains.append(((j,), KoszulChain(I, t, terms)))
    for alpha in range(0, 7):
        got = kz.span_multiples(chains, alpha, stop=stop)
        assert got.rows == _reference_span(kz, chains, (alpha,), stop).rows


def test_degrees_upto():
    ring = RingConfig((2, 2))
    box = degrees_upto(ring, (2, 1))
    assert len(box) == 6
    assert (0, 0) in box and (2, 1) in box


def test_generates_up_to_positive_and_negative():
    ring = RingConfig((2,))
    I = power_ideal(ring, 2)
    kz = KoszulComplex(I)
    gens = kz.cycle_chains(1, 3)
    ok, fail = generates_up_to(kz, gens, 1, 6)
    assert ok and fail is None
    ok, fail = generates_up_to(kz, gens[:1], 1, 6)
    assert not ok and fail == (3,)
    with pytest.raises(ValueError, match="not a cycle"):
        generates_up_to(kz, [KoszulChain(I, 1, {kz.basis(1, 4)[0]: 1})], 1, 5)
    with pytest.raises(ValueError, match="wrong Koszul component"):
        generates_up_to(kz, kz.cycle_chains(1, 4), 2, 5)


@pytest.mark.parametrize(
    "blocks,c,t,want",
    [
        # chessboard complex M_{5,5} at the fine degree (1^5; 1^5) of P^4 x P^4
        ((5, 5), (1, 1), 3, {0: 0, 2: 0, 3: 1, 5: 0}),
        # matching complex M_7 at (1^7) for m^2 in seven variables
        ((7,), 2, 2, {0: 0, 3: 1}),
    ],
)
def test_squarefree_blocks_carry_3_torsion(blocks, c, t, want):
    # reduced H_{t-1} of these complexes has 3-torsion (Bouc; Shareshian-Wachs),
    # so the block is 1 over GF(3) and 0 in every other characteristic tried:
    # an elimination that drops its `% p` or reduces over the wrong ring fails
    ring = RingConfig(blocks)
    for p, dim in want.items():
        field = PrimeField(p) if p else QQ
        kz = KoszulComplex(power_ideal(ring, c), field)
        assert kz.homology_dim(t, (1,) * ring.n) == dim, field
