"""Exterior-algebra bookkeeping for Koszul complexes of monomial ideals.

A KoszulChain is a sparse sum of terms coeff * e_T (x) w, keyed by the index
set T, a bitmask with bit i - 1 set for generator i, and a monomial w.  The
internal degree of e_T is the sum of the generator multidegrees, so the
differential and all the canonical maps are degree 0.  T is this one int
everywhere, from the chains here to the faces of `homology`; only `render`
decodes it, to print, and the public `sign` and `sort_bracket` take index
tuples.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, starmap
from operator import gt

from .rings import MonomialIdeal, mon_mul


def lowbits(T: int) -> list:
    """The set bits of the bitmask T, lowest first, one step per set bit."""
    bits = []
    while T:
        low = T & -T
        bits.append(low)
        T ^= low
    return bits


def mask_sign(A: int, B: int) -> int:
    """sigma(A, B) = (-1)^#{(a,b) in A x B : a > b} for disjoint bitmasks:
    -(b << 1) keeps the bits of A above the bit b of B."""
    return -1 if sum((A & -(b << 1)).bit_count() for b in lowbits(B)) & 1 else 1


def _mask(indices) -> int:
    """The bitmask of a collection of 1-based indices."""
    return sum(1 << i - 1 for i in set(indices))


def sign(A, B) -> int:
    """sigma(A, B) of two disjoint tuples of 1-based indices (`mask_sign`)."""
    a, b = _mask(A), _mask(B)
    if a & b:
        raise ValueError(f"overlapping index sets {tuple(A)} and {tuple(B)}")
    return mask_sign(a, b)


def sort_bracket(indices):
    """Sort a bracket [u_{i1}, ..., u_{it}] into e_T form: (sign, T bitmask)
    or None.

    Returns None when an index repeats (the wedge vanishes).
    """
    indices = tuple(indices)
    T = _mask(indices)
    if T.bit_count() != len(indices):
        return None
    return (-1 if sum(starmap(gt, combinations(indices, 2))) % 2 else 1), T


class KoszulChain:
    """Element of K_t(I, S): sparse sum of coeff * e_T (x) w."""

    __slots__ = ("ideal", "t", "terms")

    def __init__(self, ideal: MonomialIdeal, t: int, terms=None):
        self.ideal = ideal
        self.t = t
        top, clean = 1 << ideal.r, {}
        for (T, w), c in (terms or {}).items():
            if c == 0:
                continue
            if type(T) is not int or not 0 <= T < top:
                raise ValueError(f"index set {T!r} is not a bitmask of {ideal.r} generators")
            if T.bit_count() != t:
                raise ValueError(f"index set {T:#b} has size != {t}")
            clean[(T, tuple(w))] = c
        self.terms = clean

    @classmethod
    def basis_element(cls, ideal, T, w, coeff=1):
        """coeff * e_T (x) w for the bitmask T."""
        return cls(ideal, T.bit_count() if type(T) is int else 0, {(T, w): coeff})

    @classmethod
    def zero(cls, ideal, t):
        return cls(ideal, t, {})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check_compat(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return KoszulChain(self.ideal, self.t, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KoszulChain(
            self.ideal, self.t, {k: -c for k, c in self.terms.items()}
        )

    def scale(self, c):
        if c == 0:
            return KoszulChain.zero(self.ideal, self.t)
        return KoszulChain(
            self.ideal, self.t, {k: c * v for k, v in self.terms.items()}
        )

    def scale_monomial(self, w):
        """Multiply by the ring monomial w."""
        w = tuple(w)
        return KoszulChain(
            self.ideal,
            self.t,
            {(T, mon_mul(m, w)): c for (T, m), c in self.terms.items()},
        )

    def _check_compat(self, other):
        if self.ideal != other.ideal or self.t != other.t:
            raise ValueError("chains over different ideals or degrees")

    def __eq__(self, other):
        if not isinstance(other, KoszulChain):
            return NotImplemented
        # the terms carry no zero coefficients, and ints equal their Fractions
        return self.ideal == other.ideal and self.t == other.t and self.terms == other.terms

    def term_degree(self, key) -> tuple:
        """The internal multidegree of the term e_T (x) w: that of u_T w."""
        T, w = key
        u = (self.ideal.gens[b.bit_length() - 1] for b in lowbits(T))
        return self.ideal.ring.mdeg(reduce(mon_mul, u, w))

    def multidegree(self):
        """Common internal multidegree; None for the zero chain."""
        degs = {self.term_degree(k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("inhomogeneous chain")
        return next(iter(degs))

    def render(self) -> str:
        """Canonical text: coeff * [u_i1,...,u_it] * w per term, sorted."""
        if not self.terms:
            return "0"
        gens, show = self.ideal.gens, self.ideal.ring.monomial_str
        # each T decoded to its indices, which order the terms as they print
        terms = sorted(([b.bit_length() for b in lowbits(T)], w, c)
                       for (T, w), c in self.terms.items())
        return " + ".join(f"{c} * [{','.join(show(gens[i - 1]) for i in T)}] * {show(w)}"
                          for T, w, c in terms)

    def __repr__(self):
        return f"KoszulChain(t={self.t}, {self.render()})"


def boundary(f: KoszulChain) -> KoszulChain:
    """Koszul differential: e_T (x) w -> sum (-1)^(k-1) e_{T \\ i_k} (x) u_{i_k} w."""
    gens, terms = f.ideal.gens, {}
    for (T, w), c in f.terms.items():
        for pos, b in enumerate(lowbits(T)):
            key = (T ^ b, mon_mul(w, gens[b.bit_length() - 1]))
            terms[key] = terms.get(key, 0) + (-c if pos & 1 else c)
    return KoszulChain(f.ideal, f.t - 1, terms)


def wedge(a: KoszulChain, f: KoszulChain) -> KoszulChain:
    """Module multiplication a.f: e_A.(e_B (x) w) = sigma(A,B) e_{A u B} (x) w."""
    if a.ideal != f.ideal:
        raise ValueError("wedge of chains over different ideals")
    terms = {}
    for (A, wa), ca in a.terms.items():
        for (B, wb), cb in f.terms.items():
            if not A & B:
                key = (A | B, mon_mul(wa, wb))
                terms[key] = terms.get(key, 0) + mask_sign(A, B) * ca * cb
    return KoszulChain(a.ideal, a.t + f.t, terms)


def gamma_map(f: KoszulChain, s: int):
    """gamma_t(f) = sum over #I = s of e_I (x) b_I, as {I: b_I} (nonzero only)."""
    if s > f.t:
        raise ValueError("subset size exceeds homological degree")
    out = {}
    for (T, w), c in f.terms.items():
        for I in map(sum, combinations(lowbits(T), s)):
            # for a fixed I, distinct terms (T, w) give distinct keys (T - I, w)
            out.setdefault(I, {})[(T ^ I, w)] = c * mask_sign(I, T ^ I)
    return {I: KoszulChain(f.ideal, f.t - s, terms) for I, terms in out.items()}


def formal_boundary(fs: dict, ideal) -> dict:
    """Differential on K_s(phi, K_t(phi, M)) elements {I: coefficient chain}."""
    out = {}
    for I, b in fs.items():
        for pos, bit in enumerate(lowbits(I)):
            J = I ^ bit
            piece = b.scale_monomial(ideal.gens[bit.bit_length() - 1]).scale(-1 if pos & 1 else 1)
            if J in out:
                out[J] = out[J] + piece
            else:
                out[J] = piece
    return {J: b for J, b in out.items() if not b.is_zero()}


def alpha_map(fs: dict, ideal, t: int) -> KoszulChain:
    """alpha: sum e_I (x) b_I -> sum e_I.b_I."""
    one, total = ideal.ring.one(), KoszulChain.zero(ideal, t)
    for I, b in fs.items():
        total += wedge(KoszulChain.basis_element(ideal, I, one), b)
    return total
