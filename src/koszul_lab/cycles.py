"""Explicit Koszul cycle families for powers of the maximal ideal(s).

Covers the two-term generators z_b(x_j, x_k) of the first cycles, the
alternating symmetrized cycles, powers of the one-cycle module, and the
factorial membership check placing scaled products inside
m_i^{c_i} Z_{c_i} + B_{c_i} (`multi2_failures`).  Every family is a plain
list of `KoszulChain`s.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial

from .exterior import KoszulChain, boundary, sort_bracket, wedge
from .fields import QQ
from .homology import KoszulComplex, degrees_upto
from .rings import (
    MonomialIdeal,
    RingConfig,
    component_basis,
    mon_mul,
    power_ideal,
)


def _power_degree(ideal: MonomialIdeal) -> tuple:
    c = ideal.is_equigenerated()
    if c is None:
        raise ValueError("cycle families require an equigenerated power ideal")
    return c


def z1_generator(ideal: MonomialIdeal, b, j: int, k: int) -> KoszulChain:
    """z_b(x_j, x_k) = x_j [b x_k] - x_k [b x_j], a cycle in Z_1(m^c, S)."""
    ring = ideal.ring
    b = tuple(b)
    if j == k:
        raise ValueError("z_b needs two distinct variables")
    blk = ring.block_of(j)
    if ring.block_of(k) != blk:
        raise ValueError("z_b variables must lie in one block")
    c = _power_degree(ideal)
    want = list(c)
    want[blk] -= 1
    if list(ring.mdeg(b)) != want:
        raise ValueError(f"monomial b has multidegree {ring.mdeg(b)}, want {tuple(want)}")
    bk = ideal.gen_index(mon_mul(b, ring.var(k)))
    bj = ideal.gen_index(mon_mul(b, ring.var(j)))
    return KoszulChain(
        ideal,
        1,
        {(1 << bk - 1, ring.var(j)): 1, (1 << bj - 1, ring.var(k)): -1},
    )


def z1_generator_family(ideal: MonomialIdeal) -> list:
    """All z_b(x_j, x_k) with j < k per block; these generate Z_1(m^c, S)."""
    ring = ideal.ring
    c = _power_degree(ideal)
    out = []
    for blk, (lo, hi) in enumerate(ring.block_slices()):
        bdeg = list(c)
        bdeg[blk] -= 1
        if any(x < 0 for x in bdeg):
            continue
        for b in component_basis(ring, tuple(bdeg)):
            for j, k in combinations(range(lo, hi), 2):
                out.append(z1_generator(ideal, b, j, k))
    return out


def symmetrized_cycle(ideal: MonomialIdeal, a_list, b_list) -> KoszulChain:
    """Alternating sum over S_{t+1} of a_{s(t+1)} [b_1 a_{s(1)}, ..., b_t a_{s(t)}]."""
    ring = ideal.ring
    c = _power_degree(ideal)
    a_list = [tuple(a) for a in a_list]
    b_list = [tuple(b) for b in b_list]
    t = len(b_list)
    if len(a_list) != t + 1:
        raise ValueError("need t+1 monomials a and t monomials b")
    adegs = {ring.mdeg(a) for a in a_list}
    if len(adegs) != 1:
        raise ValueError("the a-monomials must share one multidegree")
    alpha = next(iter(adegs))
    want = tuple(ci - ai for ci, ai in zip(c, alpha))
    if any(x < 0 for x in want):
        raise ValueError("a-degree exceeds the power vector")
    for b in b_list:
        if ring.mdeg(b) != want:
            raise ValueError(f"b-monomial degree {ring.mdeg(b)} != {want}")
    terms = {}
    for perm in permutations(range(t + 1)):
        s = sort_bracket([p + 1 for p in perm])[0]  # the parity of perm
        idx = [ideal.gen_index(mon_mul(b_list[i], a_list[perm[i]])) for i in range(t)]
        sorted_bracket = sort_bracket(idx)
        if sorted_bracket is None:
            continue
        s2, T = sorted_bracket
        key = (T, a_list[perm[t]])
        terms[key] = terms.get(key, 0) + s * s2
    return KoszulChain(ideal, t, terms)


def z1_products(kz: KoszulComplex, t: int) -> list:
    """The nonzero t-fold wedges of the z_b generators, as (multidegree, chain)
    pairs; kz.span_multiples of them in degree alpha spans (Z_1^t)_alpha.
    InfeasibleError is raised when the C(#gens, t) products pass kz's ceiling."""
    if t < 1:
        raise ValueError("t must be >= 1")
    gens = z1_generator_family(kz.ideal)
    count = comb(len(gens), t)
    kz._check_ceiling(count, lambda: f"Z_1^{t} has {count} candidate products,")
    prods = []
    for combo in combinations(gens, t):
        prod = reduce(wedge, combo)
        if not prod.is_zero():
            prods.append((prod.multidegree(), prod))
    return prods


def multi2_failures(ring: RingConfig, c, block: int, field=QQ):
    """Check (c_i+1)! m^b U_i^{c_i} in m_i^{c_i} Z_{c_i} + B_{c_i}, c_i = u, on
    every trial: u block-local one-cycles z_b(x_j, x_k), b of degree c - e_i,
    wedged and times one more such monomial.  Returns (trials, failures), each
    failure as its factor monomials, variable pairs and extra monomial."""
    c = ring.as_mdeg(c)
    u = c[block]
    if u < 1:
        raise ValueError("c_i must be positive for the membership lemma")
    ideal = power_ideal(ring, c)
    kz = KoszulComplex(ideal, field)
    # deg = u*(c + e_i) + (c - e_i) = (u+1)c + (u-1)e_i
    alpha = tuple(a * (u + 1) + (u - 1) * (k == block) for k, a in enumerate(c))
    cycles = [
        (delta, z)
        for delta in degrees_upto(ring, alpha)
        if alpha[block] - delta[block] >= u
        for z in kz.cycle_chains(u, delta)
    ]
    span = kz.span_multiples(cycles, alpha)
    for col in kz.boundary_image(u, alpha):
        span.add(col)
    b_monomials = component_basis(ring, tuple(a - (k == block) for k, a in enumerate(c)))
    lo, hi = ring.block_slices()[block]
    choices = [(a, yp) for a in b_monomials for yp in combinations(range(lo, hi), 2)]
    trials, failures = 0, []
    for factors in combinations_with_replacement(choices, u):
        prod = reduce(wedge, (z1_generator(ideal, a, *yp) for a, yp in factors))
        prod = prod.scale(factorial(u + 1))
        for extra in b_monomials:
            trials += 1
            chain = prod.scale_monomial(extra)
            if not chain.is_zero() and not span.contains(kz.chain_vector(chain, alpha)):
                failures.append(
                    {
                        "a": [list(a) for a, _ in factors],
                        "pairs": [list(yp) for _, yp in factors],
                        "extra": list(extra),
                    }
                )
    return trials, failures


def _normalized_terms(chain: KoszulChain):
    from fractions import Fraction

    lead_key = min(chain.terms)
    lead = Fraction(chain.terms[lead_key])
    return tuple(sorted((k, Fraction(v) / lead) for k, v in chain.terms.items()))


def gen2_families(n: int, c: int) -> list:
    """Candidate generators of Z_2(m^c, S), up to scalars: symmetrized cycles
    of degree 2c+1 and pairwise products of one-cycle generators of degree
    2c+2.  They are integer chains; the statement they test needs char != 2."""
    ring = RingConfig((n,))
    ideal = power_ideal(ring, c)
    variables = [ring.var(k) for k in range(n)]
    b_monomials = component_basis(ring, c - 1)
    candidates = [
        symmetrized_cycle(ideal, list(a_triple), list(b_pair))
        for a_triple in combinations(variables, 3)
        for b_pair in combinations_with_replacement(b_monomials, 2)
    ]
    candidates += [wedge(f, g) for f, g in combinations(z1_generator_family(ideal), 2)]
    families, seen = [], set()
    for chain in candidates:
        if chain.is_zero():
            continue
        canon = _normalized_terms(chain)
        if canon in seen:
            continue
        seen.add(canon)
        if not boundary(chain).is_zero():
            raise AssertionError(f"family member {chain.render()} is not a cycle")
        families.append(chain)
    return families
