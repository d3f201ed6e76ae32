"""Exterior-algebra bookkeeping for Koszul complexes of monomial ideals.

A KoszulChain is a sparse sum of terms coeff * e_T (x) w, keyed by a strictly
increasing tuple T of 1-based generator indices and a monomial w.  The internal
degree of e_T is the sum of the generator multidegrees, so the differential and
all the canonical maps are degree 0.
"""

from __future__ import annotations

from itertools import combinations, product, starmap
from operator import gt

from .rings import MonomialIdeal, mon_mul, total_deg


def sign(A, B) -> int:
    """sigma(A, B) = (-1)^#{(a,b) in A x B : a > b}; requires A, B disjoint."""
    A, B = tuple(A), tuple(B)
    if not set(A).isdisjoint(B):
        raise ValueError(f"overlapping index sets {A} and {B}")
    return _sign(A, B)


def _sign(A, B) -> int:
    """sigma(A, B) for index sets already known to be disjoint."""
    return -1 if sum(starmap(gt, product(A, B))) % 2 else 1


def sort_bracket(indices):
    """Sort a bracket [u_{i1}, ..., u_{it}] into e_T form: (sign, T) or None.

    Returns None when an index repeats (the wedge vanishes).
    """
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(starmap(gt, combinations(indices, 2)))
    return (-1 if inversions % 2 else 1), tuple(sorted(indices))


class KoszulChain:
    """Element of K_t(I, S): sparse sum of coeff * e_T (x) w."""

    __slots__ = ("ideal", "t", "terms")

    def __init__(self, ideal: MonomialIdeal, t: int, terms=None):
        self.ideal = ideal
        self.t = t
        r = ideal.r
        clean = {}
        for (T, w), c in (terms or {}).items():
            if c == 0:
                continue
            T = tuple(T)
            if len(T) != t:
                raise ValueError(f"index set {T} has size != {t}")
            if T and (min(T) < 1 or max(T) > r):
                raise ValueError(f"index set {T} out of range [1, {r}]")
            clean[(T, tuple(w))] = c
        self.terms = clean

    @classmethod
    def basis_element(cls, ideal, T, w, coeff=1):
        return cls(ideal, len(tuple(T)), {(tuple(T), tuple(w)): coeff})

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
        T, w = key
        ring = self.ideal.ring
        deg = list(ring.mdeg(w))
        for i in T:
            g = ring.mdeg(self.ideal.gens[i - 1])
            deg = [a + b for a, b in zip(deg, g)]
        return tuple(deg)

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
        ring = self.ideal.ring
        parts = []
        for (T, w) in sorted(self.terms):
            c = self.terms[(T, w)]
            gens = ",".join(
                ring.monomial_str(self.ideal.gens[i - 1]) for i in T
            )
            parts.append(f"{c} * [{gens}] * {ring.monomial_str(w)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"KoszulChain(t={self.t}, {self.render()})"


def boundary(f: KoszulChain) -> KoszulChain:
    """Koszul differential: e_T (x) w -> sum (-1)^(k-1) e_{T \\ i_k} (x) u_{i_k} w."""
    ideal = f.ideal
    terms = {}
    for (T, w), c in f.terms.items():
        for pos, i in enumerate(T):
            s = -1 if pos % 2 else 1
            key = (T[:pos] + T[pos + 1 :], mon_mul(w, ideal.gens[i - 1]))
            terms[key] = terms.get(key, 0) + s * c
    return KoszulChain(ideal, f.t - 1, terms)


def wedge(a: KoszulChain, f: KoszulChain) -> KoszulChain:
    """Module multiplication a.f: e_A.(e_B (x) w) = sigma(A,B) e_{A u B} (x) w."""
    if a.ideal != f.ideal:
        raise ValueError("wedge of chains over different ideals")
    terms = {}
    for (A, wa), ca in a.terms.items():
        disjoint = set(A).isdisjoint
        for (B, wb), cb in f.terms.items():
            if disjoint(B):
                key = (tuple(sorted(A + B)), mon_mul(wa, wb))
                terms[key] = terms.get(key, 0) + _sign(A, B) * ca * cb
    return KoszulChain(a.ideal, a.t + f.t, terms)


def index_chain(ideal, I):
    """The basis chain e_I in K_s(I, S) with trivial monomial part."""
    I = tuple(sorted(I))
    return KoszulChain.basis_element(ideal, I, ideal.ring.one())


def gamma_map(f: KoszulChain, s: int):
    """gamma_t(f) = sum over #I = s of e_I (x) b_I, as {I: b_I} (nonzero only)."""
    if s > f.t:
        raise ValueError("subset size exceeds homological degree")
    out = {}
    for (T, w), c in f.terms.items():
        # the complements of the s-subsets of T, in lex order, are the
        # (t - s)-subsets in reverse lex order
        rests = reversed(list(combinations(T, f.t - s)))
        for I, rest in zip(combinations(T, s), rests):
            # for a fixed I, distinct terms (T, w) give distinct keys (T - I, w)
            out.setdefault(I, {})[(rest, w)] = c * _sign(I, rest)
    return {I: KoszulChain(f.ideal, f.t - s, terms) for I, terms in out.items()}


def formal_boundary(fs: dict, ideal) -> dict:
    """Differential on K_s(phi, K_t(phi, M)) elements {I: coefficient chain}."""
    out = {}
    for I, b in fs.items():
        for pos, i in enumerate(I):
            s = -1 if pos % 2 else 1
            J = I[:pos] + I[pos + 1 :]
            piece = b.scale_monomial(ideal.gens[i - 1]).scale(s)
            if J in out:
                out[J] = out[J] + piece
            else:
                out[J] = piece
    return {J: b for J, b in out.items() if not b.is_zero()}


def alpha_map(fs: dict, ideal, t: int) -> KoszulChain:
    """alpha: sum e_I (x) b_I -> sum e_I.b_I."""
    total = None
    for I, b in fs.items():
        piece = wedge(index_chain(ideal, I), b)
        total = piece if total is None else total + piece
    if total is None:
        return KoszulChain.zero(ideal, t)
    return total
