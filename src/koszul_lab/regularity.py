"""Regularity: the Tor layer over the Koszul engine.

GradedModule represents Z_t(I, M) or H_t(I, M) in the standard grading by its
fine pieces, whose Betti numbers are computed as Koszul homology against the
variables; they vanish past the module's stability degree, where nothing is
built.  reg(I) of a monomial ideal is read off the LCM lattice of I, or off
its generators when I is strongly stable.  Only the harness reads this
module, so it loads on first use (`koszul_lab.__init__`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations

from .fields import QQ
from .homology import KoszulComplex, _boundary_column
from .linalg import Echelon, kernel_basis
from .rings import MonomialIdeal, RingConfig, _bounded_compositions, mon_lcm, power_ideal, total_deg


def is_strongly_stable(I: MonomialIdeal) -> bool:
    """Whether I is closed under x_i -> x_j exchanges for j < i (d = 1): I
    equals the Borel closure of its generators."""
    return borel_closure(I.ring, I.gens) == I


def borel_closure(ring: RingConfig, seed) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the seed monomials (d = 1)."""
    if ring.d != 1:
        raise ValueError("Borel closure is defined for the standard grading")
    seen = {tuple(m) for m in seed}
    queue = list(seen)
    while queue:
        u = queue.pop()
        for i in range(ring.n):
            if u[i] == 0:
                continue
            for j in range(i):
                moved = list(u)
                moved[i] -= 1
                moved[j] += 1
                moved = tuple(moved)
                if moved not in seen:
                    seen.add(moved)
                    queue.append(moved)
    return MonomialIdeal(ring, seen)


@lru_cache(maxsize=None)
def reg_monomial_ideal(I: MonomialIdeal, field=QQ) -> int:
    """reg(I) over `field`, memoised.  Strongly stable: max generator degree.

    Otherwise reg(S/I) is computed from Tor_i(S/I, K)_beta = H_i(x; S/I)_beta,
    the Koszul homology of the variables with coefficients S/I, at fine
    degrees beta of the LCM lattice of I: the lcms of the nonempty sets T of
    minimal generators.  The Taylor resolution of S/I is Z^n-graded with a
    basis element e_T in degree lcm(u_T) and homological degree |T|, so
    Tor_i(S/I, K)_beta, a subquotient of its degree-beta part tensored with
    K, vanishes unless beta = lcm(u_T) for some T with |T| = i (Taylor 1966;
    Gasharov-Peeva-Welker 1999), and for i > n.  The pairs (lcm(u_T), |T|)
    are built one generator at a time.  reg(S/I) is the largest |beta| - i
    over the nonzero blocks among them, so they are ranked in decreasing
    |beta| - i up to the first nonzero one; reg(I) = reg(S/I) + 1.
    """
    if I.ring.d != 1:
        raise ValueError("regularity over the standard grading only")
    if is_strongly_stable(I):
        return I.max_gen_degree()
    kz = KoszulComplex(power_ideal(I.ring, 1), field, I)
    pairs = set()  # (lcm(u_T), |T|)
    for u in I.gens:
        pairs |= {(mon_lcm(u, b), k + 1) for b, k in pairs} | {(u, 1)}
    allowed = sorted(((total_deg(b) - i, b, i) for b, i in pairs if i <= I.ring.n), reverse=True)
    # Tor_1 is nonzero at each minimal generator, so some block is nonzero
    return next(gap for gap, beta, i in allowed if kz.homology_dim(i, beta)) + 1


class GradedModule:
    """Z_t(I, M), or H_t(I, M) = Z_t / B_t, as a graded module (d = 1), built
    on the box [0, a] of fine degrees, a = `box`.

    The module is positively a-determined (see `tor_dims`), so its Betti
    numbers read only the fine pieces M_gamma with gamma <= a.  phi_t is
    block-diagonal by fine degree, and at gamma K_s is spanned by its faces
    e_T (x) w, w = gamma - u_T, each named by its T bits, read from the
    complex at gamma (`KoszulComplex._fine_faces`), which keeps them for the
    ceiling guard and the piece alike.  The piece at gamma is the RREF kernel
    Z_gamma of phi_t on them, whose free columns give the Z-coordinates of
    any cycle; for H_t the boundaries B_gamma are echelon rows in those
    coordinates, and the Z-basis vectors off their pivots represent a basis
    of H_gamma.  x_k takes the face T at gamma to the face T at gamma + e_k.
    """

    def __init__(self, kz: KoszulComplex, t: int, quotient: bool):
        if kz.ring.d != 1:
            raise ValueError("graded modules use the standard grading")
        self.kz = kz
        self.t = t
        self.quotient = quotient
        self.ring = kz.ring
        self.field = kz.field
        top = t + 1 if quotient else t
        jgens = kz.J.gens if kz.J else []
        self.box = tuple(
            sum(sorted((u[k] for u in kz.ideal.gens), reverse=True)[:top])
            + max((g[k] for g in jgens), default=0)
            for k in range(self.ring.n)
        )
        self._pieces = {}
        self._guarded = set()

    @property
    def stable_degree(self) -> int:
        """|a|: Tor_i(M, K)_j = 0 for j > |a| (see `tor_dims`)."""
        return sum(self.box)

    def _guard(self, q: int):
        """Check the ceiling once per degree q, before any kernel there: the
        faces over the gamma <= box with |gamma| = q of K_t, of K_{t-1} when
        K_t has any, and of K_{t+1} for H_t, each level on its own."""
        if q in self._guarded:
            return
        gammas = list(_bounded_compositions(q, self.box))

        def check(s):
            count = sum(len(self.kz._fine_faces(s, gamma)) for gamma in gammas)
            self.kz._check_ceiling(count, lambda: f"K_{s} has {count} faces in degree {q} "
                                   f"inside the box {self.box},")
            return count

        if check(self.t):
            check(self.t - 1)
        if self.quotient:
            check(self.t + 1)
        self._guarded.add(q)

    def piece(self, gamma: tuple) -> tuple:
        """(coordinates, representatives, boundaries) at the fine degree
        gamma <= box: the Z-coordinate of each free face T of Z_gamma, the
        Z-basis vectors {T: coefficient} representing a basis of M_gamma (all
        of them for Z_t, those off the pivots of B_gamma for H_t), and the
        echelon rows of B_gamma in Z-coordinates (none for Z_t)."""
        if gamma not in self._pieces:
            self._guard(sum(gamma))
            t, kz = self.t, self.kz
            faces, signs = kz._fine_faces(t, gamma), kz._signs
            rows = {T: c for c, T in enumerate(kz._fine_faces(t - 1, gamma))}
            vecs = kernel_basis([_boundary_column(T, rows, signs) for T in faces], self.field)
            # kernel_basis puts each vector's free column after all its other columns
            coords = {faces[max(v)]: b for b, v in enumerate(vecs)}
            bounds = Echelon(self.field)
            if self.quotient:
                for T in kz._fine_faces(t + 1, gamma):
                    bounds.add(_boundary_column(T, coords, signs))
            reps = [{faces[c]: x for c, x in v.items()} for b, v in enumerate(vecs)
                    if b not in bounds.rows]
            self._pieces[gamma] = coords, reps, list(bounds.rows.values())
        return self._pieces[gamma]


def cycle_module(kz: KoszulComplex, t: int) -> GradedModule:
    """Z_t(I, M) as a graded module over the standard grading."""
    return GradedModule(kz, t, quotient=False)


def homology_module(kz: KoszulComplex, t: int) -> GradedModule:
    """H_t(I, M) = Z_t / B_t as a graded module."""
    return GradedModule(kz, t, quotient=True)


def _tor_at(M: GradedModule, beta: tuple, lo: int, hi: int) -> list:
    """[dim Tor_i(M, K)_beta for i = lo..hi] at beta <= box: H_i of the
    variables-Koszul complex on M, whose i-chains are the e_A (x)
    M_{beta - e_A} over the i-subsets A of the support of beta.

    The column of e_A (x) z is the sum over k in A of +-e_{A - k} (x) x_k z.
    For H_t the rank of delta_i is taken with the target blocks first seeded
    with the rows of their B, whose rank is then subtracted.  delta_i and
    delta_{i+1} are ranked only where the i-chains are nonzero, and each
    delta once per call: delta_{i+1} serves both Tor_i and Tor_{i+1}.
    """
    f, support = M.field, [k for k, e in enumerate(beta) if e]

    def piece(A):
        return M.piece(tuple(e - (k in A) for k, e in enumerate(beta)))

    @lru_cache(maxsize=None)
    def rank(i):
        if not 1 <= i <= len(support):
            return 0
        ech, targets, width = Echelon(f), {}, 0
        for A in combinations(support, i - 1):
            coords, _, bounds = piece(A)
            targets[A] = width, coords
            for row in bounds:
                ech.add({width + c: v for c, v in row.items()})
            width += len(coords)
        seeded = ech.rank
        for A in combinations(support, i):
            for z in piece(A)[1]:
                col = {}
                for p, k in enumerate(A):
                    off, coords = targets[A[:p] + A[p + 1 :]]
                    # x_k z in Z-coordinates: its entries on the free faces at beta - e_{A - k},
                    # where a face dead in S/J has none
                    for T, v in z.items():
                        if T in coords:
                            col[off + coords[T]] = f.coerce(-v) if p & 1 else v
                ech.add(col)
        return ech.rank - seeded

    dims = []
    for i in range(lo, hi + 1):
        chains = sum(len(piece(A)[1]) for A in combinations(support, i))
        dims.append(chains and chains - rank(i) - rank(i + 1))
    return dims


def tor_dims(M: GradedModule, i: int, j: int) -> int:
    """dim Tor_i(M, K)_j = H_i of the variables-Koszul complex on M, built on
    the box [0, a] of fine degrees, a = M.box.

    M is positively a-determined (Miller, J. Algebra 231, 2000): x_k maps
    M_{gamma - e_k} onto M_gamma isomorphically whenever gamma_k > a_k.  For
    Z_t this holds on K_t, whose summands S(-u_T) have u_T <= a, and on
    K_{t-1}, so on the kernel; for H_t also on K_{t+1}, so on B_t and on the
    quotient; over S/J the exponents of J are added to a.  Take a fine degree
    beta with some beta_k > a_k.  The variables-Koszul complex on M at beta is
    the mapping cone of x_k between two copies of the complex on the other
    variables, at beta - e_k and at beta; its pieces x_k : M_{gamma - e_k} ->
    M_gamma have gamma_k = beta_k > a_k, so they are isomorphisms, the cone is
    exact and Tor_i(M, K)_beta = 0.  Hence Tor_i(M, K)_j is the sum over
    beta <= a with |beta| = j, which is 0 for j > |a| = M.stable_degree,
    before M is built.  The complex at such a beta is the sum of e_A (x)
    M_{beta - e_A} over the i-subsets A of the variables (`_tor_at`), and it
    reads only pieces M_gamma with gamma <= beta <= a: the box pieces.
    """
    if not 0 <= i <= M.ring.n or j < i or j > M.stable_degree:
        return 0
    return sum(_tor_at(M, beta, i, i)[0] for beta in _bounded_compositions(j, M.box))


def tor_violations(M: GradedModule, bound: int, i_max=None):
    """Every nonzero Tor_i(M, K)_j with j - i > bound and i <= i_max, as
    (i, j, dim) sorted by (j - i, i): exact, since Tor is 0 past j = |a|
    (`tor_dims`), so bound >= |a| scans nothing.  Each fine degree beta <= a
    with |beta| = j > bound is visited once, for every i <= j - bound - 1 at
    once (`_tor_at`), and the (i, j) sums are read off the visits.
    """
    top = M.ring.n if i_max is None else min(i_max, M.ring.n)
    dims = Counter()
    for j in range(bound + 1, M.stable_degree + 1):
        for beta in _bounded_compositions(j, M.box):
            for i, d in enumerate(_tor_at(M, beta, 0, min(top, j - bound - 1))):
                dims[i, j] += d
    return sorted(((i, j, d) for (i, j), d in dims.items() if d), key=lambda e: (e[1] - e[0], e[0]))
