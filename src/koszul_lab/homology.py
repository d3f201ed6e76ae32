"""Graded pieces of Koszul complexes and exact homological invariants.

KoszulComplex computes bases, boundary matrices, cycle spaces and homology
dimensions of K_t(I, M) in a fixed multidegree, with M = S or a monomial
quotient S/J.  GradedModule represents a graded subquotient (cycles, homology,
S/J, an ideal) with exact per-degree coordinates and the variable action, from
which Betti numbers are computed as Koszul homology against the variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .exterior import KoszulChain, boundary
from .fields import QQ
from .linalg import Echelon, SparseMatrix, kernel_basis, rank
from .rings import MonomialIdeal, RingConfig, component_basis, mon_mul


class Coefficients:
    """Coefficient module for Koszul complexes: S, or S/J for monomial J."""

    def __init__(self, ring: RingConfig, J: MonomialIdeal | None = None):
        if J is not None and J.ring != ring:
            raise ValueError("coefficient ideal over a different ring")
        self.ring = ring
        self.J = J

    def basis(self, alpha) -> list:
        mons = component_basis(self.ring, alpha)
        if self.J is None:
            return mons
        return [m for m in mons if not self.J.contains(m)]

    def reduce(self, w):
        """Image of the monomial w, or None when it dies in the quotient."""
        if self.J is not None and self.J.contains(w):
            return None
        return w


@dataclass
class ComponentBasis:
    """Ordered basis of a graded piece with coordinate vectors inside it."""

    keys: list
    vectors: list  # dicts {column index: scalar}

    @property
    def dim(self):
        return len(self.vectors)


class KoszulComplex:
    """K(I, M) for a monomial ideal I, with per-(t, degree) caches."""

    def __init__(self, I: MonomialIdeal, field=QQ, coeffs: Coefficients | None = None):
        self.ideal = I
        self.ring = I.ring
        self.field = field
        self.coeffs = coeffs or Coefficients(I.ring)
        self._basis = {}
        self._bmat = {}
        self._kernel = {}
        self._gen_mdegs = [self.ring.mdeg(g) for g in I.gens]

    def basis(self, t: int, alpha) -> list:
        """Ordered basis (T, w) of K_t(I, M) in internal multidegree alpha."""
        alpha = self.ring.as_mdeg(alpha)
        key = (t, alpha)
        if key in self._basis:
            return self._basis[key]
        out = []
        if 0 <= t <= self.ideal.r:
            for T in combinations(range(1, self.ideal.r + 1), t):
                wdeg = list(alpha)
                for i in T:
                    g = self._gen_mdegs[i - 1]
                    wdeg = [a - b for a, b in zip(wdeg, g)]
                if any(a < 0 for a in wdeg):
                    continue
                for w in self.coeffs.basis(tuple(wdeg)):
                    out.append((T, w))
        self._basis[key] = out
        return out

    def key_index(self, t: int, alpha) -> dict:
        return {k: i for i, k in enumerate(self.basis(t, alpha))}

    def boundary_matrix(self, t: int, alpha) -> SparseMatrix:
        """Matrix of phi_t : K_t -> K_{t-1} in internal degree alpha."""
        alpha = self.ring.as_mdeg(alpha)
        key = (t, alpha)
        if key in self._bmat:
            return self._bmat[key]
        cols = self.basis(t, alpha)
        rows = self.basis(t - 1, alpha) if t >= 1 else []
        ridx = {k: i for i, k in enumerate(rows)}
        entries = {}
        for j, (T, w) in enumerate(cols):
            for pos, i in enumerate(T):
                s = -1 if pos % 2 else 1
                uw = self.coeffs.reduce(mon_mul(w, self.ideal.gens[i - 1]))
                if uw is None:
                    continue
                rkey = (T[:pos] + T[pos + 1 :], uw)
                entries[(ridx[rkey], j)] = self.field.coerce(s)
        M = SparseMatrix(len(rows), len(cols), entries)
        self._bmat[key] = M
        return M

    def cycle_space(self, t: int, alpha) -> ComponentBasis:
        """Basis of Z_t(I, M)_alpha; Z_0 is the whole component."""
        alpha = self.ring.as_mdeg(alpha)
        key = (t, alpha)
        if key in self._kernel:
            return self._kernel[key]
        keys = self.basis(t, alpha)
        if t == 0:
            vecs = [{i: self.field.one} for i in range(len(keys))]
        else:
            vecs = kernel_basis(self.boundary_matrix(t, alpha), self.field)
        cb = ComponentBasis(keys, vecs)
        self._kernel[key] = cb
        return cb

    def boundary_image(self, t: int, alpha) -> list:
        """Spanning vectors of B_t(I, M)_alpha inside the K_t basis."""
        M = self.boundary_matrix(t + 1, alpha)
        return [col for col in M.columns() if col]

    def homology_dim(self, t: int, alpha) -> int:
        alpha = self.ring.as_mdeg(alpha)
        dim_kt = len(self.basis(t, alpha))
        if dim_kt == 0:
            return 0
        rk_out = rank(self.boundary_matrix(t, alpha), self.field) if t >= 1 else 0
        rk_in = rank(self.boundary_matrix(t + 1, alpha), self.field)
        return dim_kt - rk_out - rk_in

    def chain_vector(self, chain: KoszulChain, alpha) -> dict:
        """Coordinates of a homogeneous chain in the K_t basis at alpha."""
        idx = self.key_index(chain.t, alpha)
        vec = {}
        for key, c in chain.terms.items():
            T, w = key
            w = self.coeffs.reduce(w)
            if w is None:
                continue
            vec[idx[(T, w)]] = self.field.coerce(c)
        return {i: v for i, v in vec.items() if not self.field.is_zero(v)}

    def vector_chain(self, t: int, alpha, vec: dict) -> KoszulChain:
        keys = self.basis(t, alpha)
        return KoszulChain(self.ideal, t, {keys[i]: c for i, c in vec.items()})


def cycle_space(I: MonomialIdeal, t: int, alpha, field=QQ, coeffs=None):
    return KoszulComplex(I, field, coeffs).cycle_space(t, alpha)


def homology_dim(I: MonomialIdeal, t: int, alpha, field=QQ, coeffs=None) -> int:
    return KoszulComplex(I, field, coeffs).homology_dim(t, alpha)


class GradedModule:
    """Graded subquotient V/W of an ambient monomial-keyed space (d = 1).

    Callbacks: ambient(q) -> list of keys; spans(q) -> (V, W) as lists of
    {key: coeff}; mul(key, k) -> key or None implements multiplication by the
    k-th variable on ambient basis keys.
    """

    def __init__(self, ring: RingConfig, field, ambient, spans, mul, name=""):
        if ring.d != 1:
            raise ValueError("graded modules use the standard grading")
        self.ring = ring
        self.field = field
        self._ambient = ambient
        self._spans = spans
        self._mul = mul
        self.name = name
        self._pieces = {}
        self._varmats = {}

    def piece(self, q: int):
        if q in self._pieces:
            return self._pieces[q]
        keys = self._ambient(q) if q >= 0 else []
        kidx = {k: i for i, k in enumerate(keys)}
        ech = Echelon(self.field, track=True)
        reps = []
        if keys:
            V, W = self._spans(q)
            for widx, w in enumerate(W):
                ech.add(self._to_cols(w, kidx), tag=("w", widx))
            for j, v in enumerate(V):
                if ech.add(self._to_cols(v, kidx), tag=("v", j)):
                    reps.append((j, v))
        piece = _Piece(keys, kidx, ech, reps)
        self._pieces[q] = piece
        return piece

    def dim(self, q: int) -> int:
        return len(self.piece(q).reps)

    def _to_cols(self, vec_bykey, kidx):
        f = self.field
        out = {}
        for k, c in vec_bykey.items():
            c = f.coerce(c)
            if not f.is_zero(c):
                out[kidx[k]] = c
        return out

    def coords(self, q: int, vec_bykey) -> dict:
        """Quotient coordinates {basis position: scalar} of an ambient vector."""
        piece = self.piece(q)
        combo = piece.ech.express(self._to_cols(vec_bykey, piece.kidx))
        if combo is None:
            raise ValueError("vector outside the module component")
        pos = {j: b for b, (j, _) in enumerate(piece.reps)}
        out = {}
        for tag, c in combo.items():
            if tag[0] == "v":
                out[pos[tag[1]]] = c
        return {b: c for b, c in out.items() if not self.field.is_zero(c)}

    def var_matrix(self, k: int, q: int) -> SparseMatrix:
        """Multiplication by x_k as a dim(q+1) x dim(q) matrix."""
        key = (k, q)
        if key in self._varmats:
            return self._varmats[key]
        piece = self.piece(q)
        entries = {}
        for b, (_, v) in enumerate(piece.reps):
            image = {}
            for akey, c in v.items():
                nk = self._mul(akey, k)
                if nk is None:
                    continue
                image[nk] = image.get(nk, 0) + c
            for i, c in self.coords(q + 1, image).items():
                entries[(i, b)] = c
        M = SparseMatrix(self.dim(q + 1), self.dim(q), entries)
        self._varmats[key] = M
        return M


@dataclass
class _Piece:
    keys: list
    kidx: dict
    ech: Echelon
    reps: list  # (original V index, vector by key)


def free_module(ring: RingConfig, field=QQ) -> GradedModule:
    return GradedModule(
        ring,
        field,
        ambient=lambda q: component_basis(ring, q),
        spans=lambda q: ([{m: 1} for m in component_basis(ring, q)], []),
        mul=lambda m, k: mon_mul(m, ring.var(k)),
        name="S",
    )


def quotient_ring_module(ring: RingConfig, J: MonomialIdeal, field=QQ) -> GradedModule:
    def spans(q):
        mons = component_basis(ring, q)
        return (
            [{m: 1} for m in mons if not J.contains(m)],
            [{m: 1} for m in mons if J.contains(m)],
        )

    return GradedModule(
        ring,
        field,
        ambient=lambda q: component_basis(ring, q),
        spans=spans,
        mul=lambda m, k: mon_mul(m, ring.var(k)),
        name="S/J",
    )


def ideal_module(ring: RingConfig, I: MonomialIdeal, field=QQ) -> GradedModule:
    def spans(q):
        mons = component_basis(ring, q)
        return ([{m: 1} for m in mons if I.contains(m)], [])

    return GradedModule(
        ring,
        field,
        ambient=lambda q: component_basis(ring, q),
        spans=spans,
        mul=lambda m, k: mon_mul(m, ring.var(k)),
        name="I",
    )


def cycle_module(kz: KoszulComplex, t: int) -> GradedModule:
    """Z_t(I, M) as a graded module over the standard grading."""
    return _koszul_submodule(kz, t, with_boundaries=False, name=f"Z_{t}")


def homology_module(kz: KoszulComplex, t: int) -> GradedModule:
    """H_t(I, M) = Z_t / B_t as a graded module."""
    return _koszul_submodule(kz, t, with_boundaries=True, name=f"H_{t}")


def _koszul_submodule(kz: KoszulComplex, t: int, with_boundaries: bool, name):
    ring = kz.ring

    def ambient(q):
        return kz.basis(t, (q,))

    def spans(q):
        cb = kz.cycle_space(t, (q,))
        V = [{cb.keys[i]: c for i, c in v.items()} for v in cb.vectors]
        W = []
        if with_boundaries:
            keys = cb.keys
            W = [
                {keys[i]: c for i, c in col.items()}
                for col in kz.boundary_image(t, (q,))
            ]
        return V, W

    def mul(key, k):
        T, w = key
        w2 = kz.coeffs.reduce(mon_mul(w, ring.var(k)))
        return None if w2 is None else (T, w2)

    return GradedModule(ring, kz.field, ambient, spans, mul, name=name)


def _koszul_var_matrix(M: GradedModule, i: int, j: int) -> SparseMatrix:
    """delta_i : Lambda^i (x) M_{j-i} -> Lambda^{i-1} (x) M_{j-i+1}."""
    n = M.ring.n
    q = j - i
    src_sets = list(combinations(range(n), i))
    tgt_sets = list(combinations(range(n), i - 1))
    tgt_idx = {A: a for a, A in enumerate(tgt_sets)}
    dim_q = M.dim(q) if q >= 0 else 0
    dim_q1 = M.dim(q + 1) if q + 1 >= 0 else 0
    entries = {}
    if dim_q:
        for a, A in enumerate(src_sets):
            for pos, k in enumerate(A):
                s = -1 if pos % 2 else 1
                tgt = tgt_idx[A[:pos] + A[pos + 1 :]]
                X = M.var_matrix(k, q)
                for (r, c), v in X.entries.items():
                    val = M.field.mul(M.field.coerce(s), v)
                    entries[(tgt * dim_q1 + r, a * dim_q + c)] = val
    return SparseMatrix(len(tgt_sets) * dim_q1, len(src_sets) * dim_q, entries)


def tor_dims(M: GradedModule, i: int, j: int) -> int:
    """dim Tor_i(M, K)_j = H_i of the variables-Koszul complex on M."""
    n = M.ring.n
    if i < 0 or i > n:
        return 0
    q = j - i
    if q < 0 or M.dim(q) == 0:
        return 0
    from math import comb

    dim_src = comb(n, i) * M.dim(q)
    rk_out = rank(_koszul_var_matrix(M, i, j), M.field) if i >= 1 else 0
    rk_in = rank(_koszul_var_matrix(M, i + 1, j), M.field) if i + 1 <= n else 0
    return dim_src - rk_out - rk_in


def tor_violations(M: GradedModule, bound: int, slack: int = 2, i_max=None):
    """Nonzero Tor entries with j - i in (bound, bound + slack].

    Empty output means no regularity violation inside the scanned window.
    """
    n = M.ring.n
    if i_max is None:
        i_max = n
    out = []
    for q in range(bound + 1, bound + slack + 1):
        for i in range(0, min(i_max, n) + 1):
            d = tor_dims(M, i, i + q)
            if d > 0:
                out.append((i, i + q, d))
    return out


def generation_degrees(M: GradedModule, cap: int) -> list:
    """Degrees j <= cap with Tor_0(M, K)_j != 0, i.e. minimal generator degrees."""
    return [j for j in range(0, cap + 1) if tor_dims(M, 0, j) > 0]


def degrees_upto(ring: RingConfig, D):
    """All multidegrees 0 <= alpha <= D componentwise, lex order."""
    D = ring.as_mdeg(D)
    return [alpha for alpha in product(*(range(b + 1) for b in D))]


def generates_up_to(candidates, I: MonomialIdeal, t: int, D, field=QQ):
    """Whether monomial multiples of the candidate cycles span Z_t(I, S)_alpha
    for every alpha <= D.  Returns (ok, first failing degree or None)."""
    kz = KoszulComplex(I, field)
    ring = I.ring
    for g in candidates:
        if g.t != t or g.ideal != I:
            raise ValueError("candidate in the wrong Koszul component")
        if not boundary(g).is_zero():
            raise ValueError("candidate is not a cycle")
    cands = [(g.multidegree(), g) for g in candidates if not g.is_zero()]
    for alpha in degrees_upto(ring, D):
        target_dim = len(kz.cycle_space(t, alpha).vectors)
        if target_dim == 0:
            continue
        ech = Echelon(field)
        found = 0
        for beta, g in cands:
            diff = tuple(a - b for a, b in zip(alpha, beta))
            if any(x < 0 for x in diff):
                continue
            for w in component_basis(ring, diff):
                vec = kz.chain_vector(g.scale_monomial(w), alpha)
                if vec and ech.add(vec):
                    found += 1
                    if found == target_dim:
                        break
            if found == target_dim:
                break
        if found < target_dim:
            return False, alpha
    return True, None
