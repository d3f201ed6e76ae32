"""Explicit Koszul cycle families for powers of the maximal ideal(s).

Covers the two-term generators z_b(x_j, x_k) of the first cycles, the
alternating symmetrized cycles, powers of the one-cycle module, and the
factorial membership check placing scaled products inside
m_i^{c_i} Z_{c_i} + B_{c_i}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial

from .exterior import KoszulChain, boundary, sort_bracket, wedge
from .fields import QQ
from .homology import KoszulComplex, degrees_upto
from .linalg import Echelon
from .rings import (
    MonomialIdeal,
    RingConfig,
    component_basis,
    mon_mul,
    power_ideal,
)

FAMILY_ENUMERATION_WARN = 10**5


@dataclass
class CycleFamily:
    label: str  # z1_generator | gen2_type1 | gen2_type2
    params: tuple
    chain: KoszulChain


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
        {((bk,), ring.var(j)): 1, ((bj,), ring.var(k)): -1},
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
                out.append(
                    CycleFamily("z1_generator", (b, j, k), z1_generator(ideal, b, j, k))
                )
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
        s = sort_bracket(perm)[0]
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
    pairs; kz.span_multiples of them in degree alpha spans (Z_1^t)_alpha."""
    if t < 1:
        raise ValueError("t must be >= 1")
    gens = [fam.chain for fam in z1_generator_family(kz.ideal)]
    count = comb(len(gens), t)
    if count > FAMILY_ENUMERATION_WARN:
        warnings.warn(
            f"z1 power enumeration has {count} candidate products", stacklevel=2
        )
    prods = []
    for combo in combinations(gens, t):
        prod = combo[0]
        for g in combo[1:]:
            prod = wedge(prod, g)
            if prod.is_zero():
                break
        if not prod.is_zero():
            prods.append((prod.multidegree(), prod))
    return prods


class Multi2Checker:
    """Membership oracle for (c_i+1)! m^b U_i^{c_i} in m_i^{c_i} Z_{c_i} + B_{c_i}.

    The span on the right is degree-fixed across trials, so it is echelonized
    once and every trial reduces against it.
    """

    def __init__(self, ring: RingConfig, c, block: int, field=QQ):
        self.ring = ring
        self.c = ring.as_mdeg(c)
        self.block = block
        self.u = self.c[block]
        if self.u < 1:
            raise ValueError("c_i must be positive for the membership lemma")
        self.ideal = power_ideal(ring, self.c)
        self.kz = KoszulComplex(self.ideal, field)
        self.alpha = self._target_degree()
        self._span = None

    def _target_degree(self) -> tuple:
        # deg = u*(c + e_i) + (c - e_i) = (u+1)c + (u-1)e_i
        alpha = [a * (self.u + 1) for a in self.c]
        alpha[self.block] += self.u - 1
        return tuple(alpha)

    def _build_span(self) -> Echelon:
        """m_i^{c_i} Z_{c_i} + B_{c_i} in degree alpha, echelonized."""
        u, kz = self.u, self.kz
        cycles = [
            (delta, z)
            for delta in degrees_upto(self.ring, self.alpha)
            if self.alpha[self.block] - delta[self.block] >= u
            for z in kz.cycle_chains(u, delta)
        ]
        ech = kz.span_multiples(cycles, self.alpha)
        for col in kz.boundary_image(u, self.alpha):
            ech.add(col)
        return ech

    def trial_chain(self, a_monomials, y_pairs, a_extra) -> KoszulChain:
        if len(a_monomials) != self.u or len(y_pairs) != self.u:
            raise ValueError(f"need {self.u} one-cycle factors")
        prod = None
        for a, (y0, y1) in zip(a_monomials, y_pairs):
            z = z1_generator(self.ideal, a, y0, y1)
            prod = z if prod is None else wedge(prod, z)
        chain = prod.scale_monomial(tuple(a_extra)).scale(factorial(self.u + 1))
        if chain.multidegree() not in (None, self.alpha):
            raise ValueError("trial has the wrong internal degree")
        return chain

    def check(self, a_monomials, y_pairs, a_extra) -> bool:
        """Whether one trial lies in the span."""
        if self._span is None:
            self._span = self._build_span()
        chain = self.trial_chain(a_monomials, y_pairs, a_extra)
        return chain.is_zero() or self._span.contains(self.kz.chain_vector(chain, self.alpha))

    def enumerate_trials(self):
        """All trials: u block-local one-cycles plus one extra b-degree monomial."""
        ring = self.ring
        bdeg = list(self.c)
        bdeg[self.block] -= 1
        b_monomials = component_basis(ring, tuple(bdeg))
        lo, hi = ring.block_slices()[self.block]
        pairs = list(combinations(range(lo, hi), 2))
        factor_choices = [(a, yp) for a in b_monomials for yp in pairs]
        for factors in combinations_with_replacement(factor_choices, self.u):
            a_monomials = [f[0] for f in factors]
            y_pairs = [f[1] for f in factors]
            for a_extra in b_monomials:
                yield a_monomials, y_pairs, a_extra


def _normalized_terms(chain: KoszulChain):
    from fractions import Fraction

    lead_key = min(chain.terms)
    lead = Fraction(chain.terms[lead_key])
    return tuple(sorted((k, Fraction(v) / lead) for k, v in chain.terms.items()))


def gen2_families(n: int, c: int) -> list:
    """Candidate generators of Z_2(m^c, S): symmetrized cycles of degree 2c+1
    and pairwise products of one-cycle generators of degree 2c+2.  They are
    integer chains; the statement they test needs char != 2."""
    ring = RingConfig((n,))
    ideal = power_ideal(ring, c)
    families = []
    seen = set()
    variables = [ring.var(k) for k in range(n)]
    b_monomials = component_basis(ring, c - 1)
    for a_triple in combinations(variables, 3):
        for b_pair in combinations_with_replacement(b_monomials, 2):
            chain = symmetrized_cycle(ideal, list(a_triple), list(b_pair))
            if chain.is_zero():
                continue
            canon = _normalized_terms(chain)
            if canon in seen:
                continue
            seen.add(canon)
            families.append(CycleFamily("gen2_type1", (a_triple, b_pair), chain))
    z1 = z1_generator_family(ideal)
    for f1, f2 in combinations(z1, 2):
        chain = wedge(f1.chain, f2.chain)
        if chain.is_zero():
            continue
        canon = _normalized_terms(chain)
        if canon in seen:
            continue
        seen.add(canon)
        families.append(CycleFamily("gen2_type2", (f1.params, f2.params), chain))
    for fam in families:
        if not boundary(fam.chain).is_zero():
            raise AssertionError(f"family member {fam.label}{fam.params} is not a cycle")
    return families
