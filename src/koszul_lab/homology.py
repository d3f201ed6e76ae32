"""Graded pieces of Koszul complexes and exact homological invariants.

KoszulComplex computes bases, differentials, cycle spaces and homology
dimensions of K_t(I, M) in a fixed multidegree, with M = S or a monomial
quotient S/J.  A differential phi_t is a list of columns, one per basis key of
K_t, each a dict of the K_{t-1}-coordinates of that key's boundary.  Homology
dimensions are sums over the fine (Z^n) degrees inside the multidegree, one
fine block per orbit of the variable permutations that fix I and J, or one
fine block alone.  For M = S a block is reduced modulo the closed star of one
generator v, a cone, is zero unbuilt when the exponents of the generators show
every t-face outside that star too large for beta - u_v, and is otherwise
ranked as a Morse complex, zero unranked when that has no t-cell.
GradedModule represents Z_t(I, M) or H_t(I, M) in the standard grading by its
fine pieces, whose Betti numbers are computed as Koszul homology against the
variables; they vanish past the module's stability degree, where nothing is
built.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, product
from math import factorial, prod
from operator import add, le, or_, sub

from .exterior import KoszulChain, boundary, lowbits
from .fields import QQ
from .linalg import Echelon, kernel_basis
from .rings import (
    DEFAULT_COMPONENT_CEILING,
    InfeasibleError,
    MonomialIdeal,
    RingConfig,
    _bounded_compositions,
    _component_basis,
    _component_dim,
    mon_mul,
)


class KoszulComplex:
    """K(I, M) for a monomial ideal I, with M = S, or M = S/J when the monomial
    ideal J (over the ring of I) is given.

    Bases, key indices and cycle spaces are cached per (t, degree), the faces
    e_T per degree of either grading and generator left out, each face one
    int of T and its residual (`_grown_faces`), the faces at a fine degree
    with no apex (`_fine_faces`), and H_t of each fine block ranked; the
    differentials themselves are assembled on demand.
    Only this class reads the packed faces.  T is a bitmask throughout, as
    in the chains of `exterior`: the coarse basis keys (T, w) at a
    multidegree (`_keys`) and the faces of the fine blocks of `homology_dim`
    and of the pieces of `GradedModule` at a fine degree (`_fine_faces`).

    `ceiling` bounds the basis elements a call builds: `basis` refuses a
    component of K_t whose size, sum dim S_w over its faces T, is larger, and
    `homology_dim` the fine blocks it would rank, before any of them is
    built; `_grown_faces` refuses a level of faces that passes it while the
    level is grown.

    A public method normalizes its degree once (`RingConfig.as_mdeg`); the
    methods it calls inside the class, `_keys`, `_key_index` and `_cycles`,
    take the normalized tuple.
    """

    def __init__(
        self,
        I: MonomialIdeal,
        field=QQ,
        J: MonomialIdeal | None = None,
        ceiling: int = DEFAULT_COMPONENT_CEILING,
    ):
        if J is not None and J.ring != I.ring:
            raise ValueError("coefficient ideal over a different ring")
        self.ideal = I
        self.ring = I.ring
        self.field = field
        self.J = J
        self.ceiling = ceiling
        self._basis = {}
        self._kernel = {}
        self._index = {}
        self._levels = {}
        self._packings = {}
        self._fine = {}
        self._dims = {}
        self._signs = (field.coerce(1), field.coerce(-1))
        # maximal runs of variables of one block whose adjacent swaps fix the
        # generators of I and of J; each permutation of a run maps the fine
        # block at beta isomorphically onto the one at the permuted beta; a
        # swap fixes each g equal at its two places, so only the others are read
        gensets = [set(I.gens)] + ([set(J.gens)] if J else [])
        self._runs = []
        for a, b in self.ring.block_slices():
            start = a
            for k in range(a + 1, b):
                if any(g[: k - 1] + (g[k], g[k - 1]) + g[k + 1 :] not in G
                       for G in gensets for g in G if g[k - 1] != g[k]):
                    self._runs.append((start, k))
                    start = k
            self._runs.append((start, b))

    def _packing(self, degree) -> tuple:
        """(bytes per field, guard mask G, packed generators of I, of J, the
        packing) for the degree's grading and width, the fewest bytes with
        max(degree) below the guard bit; J is packed at fine degrees only."""
        key = (len(degree), max(degree).bit_length() // 8 + 1)
        if key not in self._packings:
            (length, size), half, r = key, 1 << 8 * key[1] - 1, self.ideal.r

            # an entry past the guard bit, which no residual reaches, packs as it; pack
            # closes over no self, as a cycle would leave each complex to the collector
            def pack(w):
                return sum(min(e, half) << 8 * size * k for k, e in enumerate(w)) << r

            fine = length == self.ring.n
            gens = self.ideal.gens if fine else list(map(self.ring.mdeg, self.ideal.gens))
            jgens = self.J.gens if fine and self.J else ()
            G = pack([half] * length)
            self._packings[key] = (size, G, [*map(pack, gens)], [*map(pack, jgens)], pack)
        return self._packings[key]

    def _grown_faces(self, t: int, degree, skip=None) -> list:
        """The faces T of K_t at the degree, packed (class docstring): the
        t-subsets of the generators other than `skip` with deg u_T <= degree,
        in lex order of the 1-based indices T.

        The degree is a multidegree (length d) or a fine degree (length n);
        the two gradings coincide when d = n.  The faces are grown one
        generator at a time, each level cached per (degree, skip): with U_i
        the packed u_i, a face F grows by i to R | bit i, R = F - U_i, when
        R & G == G (no field borrowed from its guard bit, i.e. u_i <= w).
        A level is grown from slices of the one before, and InfeasibleError
        is raised once it has more than `ceiling` faces; a refused level is
        not cached.
        """
        if not 0 <= t <= self.ideal.r or min(degree) < 0:
            return []
        levels = self._levels.get((degree, skip), ())
        if len(levels) <= t:
            _, G, gens, _, pack = self._packing(degree)
            root, tmask = pack(degree) | G, (1 << self.ideal.r) - 1
            levels = self._levels.setdefault((degree, skip), [[root]])
            # only the generators dividing the degree can divide a residual
            fits = [i for i, U in enumerate(gens, 1) if i != skip and (root - U) & G == G]
            steps = [(gens[i - 1], 1 << i - 1) for i in fits]
            # the steps after each last index of T, the bit length of F's T bits
            after = [steps[bisect(fits, last) :] for last in range(self.ideal.r + 1)]
            # a slice of the previous level grows at most ceiling + r faces
            width = self.ceiling // max(len(steps), 1) + 1
            while len(levels) <= t:
                prev, level = levels[-1], []
                for k in range(0, len(prev), width):
                    level += [
                        R | bit
                        for F in prev[k : k + width]
                        for U, bit in after[(F & tmask).bit_length()]
                        if (R := F - U) & G == G
                    ]
                    self._check_ceiling(len(level), lambda: f"K_{len(levels)} has at least "
                                        f"{len(level)} faces at degree {degree},")
                levels.append(level)
        return levels[t]

    def basis(self, t: int, alpha) -> list:
        """Ordered basis (T, w) of K_t(I, M) in internal multidegree alpha, T a
        bitmask, in lex order of the indices in T; raises InfeasibleError when
        sum dim S_w over the faces T, the basis size for M = S and a bound for
        M = S/J, exceeds the ceiling."""
        return self._keys(t, self.ring.as_mdeg(alpha))

    def _keys(self, t: int, alpha: tuple) -> list:
        key = (t, alpha)
        if key not in self._basis:
            # each face split once into T and its residual w, read by one to_bytes
            (size, G, *_), r = self._packing(alpha), self.ideal.r
            width, faces = size * len(alpha), []
            for F in self._grown_faces(t, alpha):
                w = (F - G >> r).to_bytes(width, "little")
                if size > 1:
                    w = [int.from_bytes(w[k : k + size], "little") for k in range(0, width, size)]
                faces.append((F & (1 << r) - 1, tuple(w)))
            dim = sum(_component_dim(self.ring, w) for _, w in faces)
            self._check_ceiling(
                dim, lambda: f"component K_{t} at degree {alpha} has dimension {dim}"
            )
            J = self.J
            self._basis[key] = [
                (T, w)
                for T, wdeg in faces
                for w in _component_basis(self.ring, wdeg)
                if J is None or not J.contains(w)
            ]
        return self._basis[key]

    def _key_index(self, t: int, alpha: tuple) -> dict:
        key = (t, alpha)
        if key not in self._index:
            self._index[key] = {k: i for i, k in enumerate(self._keys(t, alpha))}
        return self._index[key]

    def boundary_columns(self, t: int, alpha) -> list:
        """phi_t : K_t -> K_{t-1} in internal degree alpha, one column per
        basis key of K_t; phi_0 has only empty columns."""
        alpha = self.ring.as_mdeg(alpha)
        keys = self._keys(t, alpha)
        if not keys:  # an empty K_t needs no K_{t-1}
            return []
        index, J, signs = self._key_index(t - 1, alpha), self.J, self._signs
        gens, columns = self.ideal.gens, []
        for T, w in keys:
            col = {}
            for pos, b in enumerate(lowbits(T)):
                uw = mon_mul(w, gens[b.bit_length() - 1])
                if J is None or not J.contains(uw):
                    col[index[(T ^ b, uw)]] = signs[pos & 1]
            columns.append(col)
        return columns

    def cycle_space(self, t: int, alpha) -> list:
        """RREF basis of Z_t(I, M)_alpha, as dicts {index in basis(t, alpha):
        scalar} (`kernel_basis`); Z_0 is the whole component."""
        return self._cycles(t, self.ring.as_mdeg(alpha))

    def _cycles(self, t: int, alpha: tuple) -> list:
        key = (t, alpha)
        if key not in self._kernel:
            self._kernel[key] = kernel_basis(self.boundary_columns(t, alpha), self.field)
        return self._kernel[key]

    def boundary_image(self, t: int, alpha) -> list:
        """Spanning vectors of B_t(I, M)_alpha inside the K_t basis."""
        return [col for col in self.boundary_columns(t + 1, alpha) if col]

    def _orbits(self, alpha):
        """(beta, orbit size) for one fine degree beta per orbit of those with
        block sums alpha: the beta that does not increase along any run."""
        tied = [k > s for s, e in self._runs for k in range(s, e)]  # k continues a run
        blocks = zip(alpha, self.ring.block_slices())
        per_block = (_bounded_compositions(c, (c,) * (b - a), tied[a:b]) for c, (a, b) in blocks)
        for parts in product(*per_block):
            beta = sum(parts, ())
            yield beta, prod(_arrangements(beta[a:b]) for a, b in self._runs)

    def _apex(self, t: int, beta) -> tuple:
        """(v, empty) over M = S: v is the generator dividing beta with the most
        monomials dividing beta - u_v, i.e. the largest prod_k (beta_k - u_{v,k}
        + 1), the first in index order on a tie, None when no generator divides
        beta; empty when the bound of `homology_dim` certifies that the
        star-reduced K_t at beta (`_fine_faces`) has no face."""
        up, gens = [b + 1 for b in beta], self.ideal.gens
        sizes = [prod(map(sub, up, u)) if all(map(le, u, beta)) else 0 for u in gens]
        most = max(sizes, default=0)
        if not most:
            return None, False
        v = sizes.index(most)
        fits = [u for i, (u, size) in enumerate(zip(gens, sizes)) if size and i != v]
        tops = [sum(sorted(col, reverse=True)[:t]) for col in zip(*fits)]
        return v + 1, all(top <= b - e for top, b, e in zip(tops, beta, gens[v]) if e)

    def _fine_faces(self, s: int, beta, v=None) -> list:
        """The faces of K_s at the fine degree beta as T bitmasks, in lex order
        of T: over M = S with the apex v (`_apex`), the faces T without v for
        which u_v does not divide beta - u_T, outside the closed star of v
        (`homology_dim`); otherwise those whose residual beta - u_T lies
        outside J, all of them over S, kept per (s, beta) with no apex."""
        if v is None and (s, beta) in self._fine:
            return self._fine[s, beta]
        faces, mask = self._grown_faces(s, beta, v), (1 << self.ideal.r) - 1
        _, G, gens, jgens, _ = self._packing(beta)
        if v is not None:
            U = gens[v - 1]
            return [F & mask for F in faces if (F - U) & G != G]
        fine = [F & mask for F in faces if all((F - V) & G != G for V in jgens)]
        return self._fine.setdefault((s, beta), fine)

    def _morse_dim(self, t: int, beta, levels: list, up: dict) -> int:
        """dim H_t of the block at beta from its faces levels = (K_{t-1}, K_t,
        K_{t+1}), T bitmasks, and an acyclic matching up = {tau: sigma} with
        sigma = tau + one generator: 0 when every t-face is paired, otherwise
        |K_t| - rank phi_t - rank phi_{t+1} in one Echelon whose rows are
        t-faces.  Each gives its boundary unless matched upward (by dd = 0 the
        rest span the image) and its coboundary unless matched downward (phi_t
        is injective on the rest, which can leave phi_{t+1}'s columns).  Kahn's
        algorithm numbers each matched (t-1)- or (t+1)-face before the other
        faces of its partner's row, and raises RuntimeError on a cycle; a
        paired row then has its partner as smallest column and is stored as it
        is, so only the critical rows are reduced."""
        low, mid, high = levels
        down = {sigma: tau for tau, sigma in up.items()}
        if all(T in up or T in down for T in mid):
            return 0
        signs, faces, cob = self._signs, dict(zip(low, low)), {}
        for sigma in high:
            for p, b in enumerate(lowbits(sigma)):
                cob.setdefault(sigma ^ b, {})[sigma] = signs[p & 1]
        rows = [(down.get(T), _boundary_column(T, faces, signs)) for T in mid if T not in up]
        rows += [(up.get(T), cob.get(T, {})) for T in mid if T not in down]
        pivot = {x: row for x, row in rows if x is not None}
        after = {x: [y for y in row if y != x and y in pivot] for x, row in pivot.items()}
        waiting = Counter(y for ys in after.values() for y in ys)
        order = [x for x in pivot if not waiting[x]]
        for x in order:
            for y in after[x]:
                waiting[y] -= 1
                if not waiting[y]:
                    order.append(y)
        if len(order) < len(pivot):
            raise RuntimeError(f"the matching at {beta} has a cycle")
        column = {F: k for k, F in enumerate(order + [F for F in low + high if F not in pivot])}
        ech = Echelon(self.field)
        for x, row in pivot.items():  # divided by its pivot, as Echelon keeps its rows
            ech.rows[column[x]] = {column[F]: signs[v != row[x]] for F, v in row.items()}
        for x, row in rows:
            if x is None:
                ech.add({column[F]: v for F, v in row.items()})
        return len(mid) - ech.rank

    def _check_ceiling(self, count: int, what):
        """Raise InfeasibleError carrying `count` when it is over the ceiling;
        what() says what was counted, and is formatted only then."""
        if count > self.ceiling:
            raise InfeasibleError(f"{what()} over the ceiling {self.ceiling}", estimate=count)

    def homology_dim(self, t: int, degree) -> int:
        """dim H_t(I, M) in an internal degree: at a multidegree (length d, or
        an int when d = 1) the sum over the fine degrees with those block
        sums, one per orbit weighted by the orbit size; at a fine degree
        (length n) its one block.  When d = n the two readings coincide.
        H_t = 0 for t < 0 and t > r, where K_t = 0.

        For M = S the block at beta is the augmented chain complex of
        {T : u_T <= beta}, truncated to K_{t-1}, K_t, K_{t+1}, which keeps H_t.
        The closed star of its apex v (`_apex`) is a cone, so the block has the
        homology of the quotient by it (`_fine_faces`), which is zero, neither
        grown nor counted, when for each k with u_{v,k} > 0 the t largest
        x_k-exponents of the other generators dividing beta sum to at most
        beta_k - u_{v,k}, as a kept t-face T has (u_T)_k > beta_k - u_{v,k}
        for some such k.  The faces of the blocks to rank are counted first;
        past the ceiling, InfeasibleError is raised before any rank.  The star
        pairs T with T + v; one such element matching per further generator
        (`_element_matching`) is acyclic with incidences +-1 (Jonsson, LNM
        1928, 2008), so the block has the homology of its Morse complex on the
        unpaired faces, over Z and every field (Forman, Adv. Math. 134, 1998;
        Skoldberg, Trans. AMS 358, 2006; `_morse_dim`).  S/J blocks have no
        apex and are matched the same way: element matchings on any family of
        faces are acyclic (Jonsson), and a pair's incidence is +-1 whenever
        both faces are present."""
        if not 0 <= t <= self.ideal.r:
            return 0
        if isinstance(degree, int) or len(degree) != self.ring.n:
            degree = self.ring.as_mdeg(degree)
            orbits = self._orbits(degree)
        else:
            degree = tuple(degree)
            orbits = [(degree, 1)]
        blocks, count = [], 0
        for beta, size in orbits:
            v, empty = self._apex(t, beta) if self.J is None else (None, False)
            if empty:  # certified zero: neither grown nor counted
                continue
            # the top level first, so that one growth serves all three
            faces = [self._fine_faces(s, beta, v) for s in (t + 1, t, t - 1)][::-1]
            if faces[1]:
                count += sum(map(len, faces))
                self._check_ceiling(count, lambda: f"the fine blocks of K_{t - 1}, K_{t} and "
                                    f"K_{t + 1} at degree {degree} have at least {count} faces,")
                blocks.append((beta, size, faces))
        for beta, _, levels in blocks:
            if (t, beta) not in self._dims:
                self._dims[t, beta] = self._morse_dim(t, beta, levels, _element_matching(levels))
        return sum(size * self._dims[t, beta] for beta, size, _ in blocks)

    def orbit_dims(self, t: int, chains, degrees) -> dict:
        """{degree: (dim Z_t, rank of the span)} of K(I, S) in each degree, the
        span that of the monomial multiples of the fine-homogeneous chains g,
        given as for `span_multiples`, summed over one fine degree beta per
        orbit of the swaps that fix I (`_orbits`), weighted by its size.  The
        span's sum is exact only for a family that those swaps map onto itself
        up to sign, as the wedges of the z_b of m^c (`cycles.z1_products`).
        At beta, Z_t is the kernel of the boundary columns of the faces T of
        e_T (x) (beta - u_T), and w g, w = beta - fdeg(g), has g's coordinates."""
        if self.J is not None:
            raise ValueError("orbit dimensions are over M = S only")
        gens, coerce = self.ideal.gens, self.field.coerce
        fine = []  # (fdeg(g), {T: coefficient}) for each chain g
        for _, g in chains:
            T, m = next(iter(g.terms))
            fdeg = reduce(mon_mul, (gens[b.bit_length() - 1] for b in lowbits(T)), m)
            fine.append((fdeg, {U: coerce(c) for (U, _), c in g.terms.items()}))
        dims = {}
        for degree in degrees:
            dz = dp = 0
            for beta, size in self._orbits(self.ring.as_mdeg(degree)):
                faces = self._fine_faces(t, beta)
                rows = {T: k for k, T in enumerate(self._fine_faces(t - 1, beta))}
                cycles, span = Echelon(self.field), Echelon(self.field)
                for T in faces:
                    cycles.add(_boundary_column(T, rows, self._signs))
                for fdeg, terms in fine:
                    if all(map(le, fdeg, beta)):
                        span.add(terms)
                dz += size * (len(faces) - cycles.rank)
                dp += size * span.rank
            dims[degree] = dz, dp
        return dims

    def chain_vector(self, chain: KoszulChain, alpha) -> dict:
        """Coordinates of a homogeneous chain in the K_t basis at alpha."""
        index = self._key_index(chain.t, self.ring.as_mdeg(alpha))
        return self._coordinates(self._field_terms(chain), index, self.ring.one())

    def _field_terms(self, chain: KoszulChain) -> list:
        """(T, m, c) for the terms c e_T (x) m of a chain, c coerced into the field."""
        coerce = self.field.coerce
        return [(T, m, coerce(c)) for (T, m), c in chain.terms.items()]

    def _coordinates(self, terms: list, index: dict, w: tuple) -> dict:
        """Coordinates in `index` of w times the chain with `terms` (from
        `_field_terms`); the terms w m that die in M and those whose
        coefficient is 0 in the field are dropped."""
        J, vec = self.J, {}
        for T, m, c in terms:
            m = tuple(map(add, m, w))
            if J is None or not J.contains(m):
                k = index[(T, m)]
                if c:
                    vec[k] = c
        return vec

    def cycle_chains(self, t: int, alpha) -> list:
        """The basis of Z_t(I, M)_alpha as chains."""
        alpha = self.ring.as_mdeg(alpha)
        keys, ideal = self._keys(t, alpha), self.ideal
        return [KoszulChain(ideal, t, {keys[i]: c for i, c in v.items()})
                for v in self._cycles(t, alpha)]

    def span_multiples(self, chains, alpha, stop=None) -> Echelon:
        """Echelon spanned by the monomial multiples w g in degree alpha of the
        chains g, given as (multidegree, g) pairs; it stops early once its
        rank reaches `stop`."""
        alpha = self.ring.as_mdeg(alpha)
        ech = Echelon(self.field)
        for beta, g in chains:
            gap = tuple(map(sub, alpha, beta))
            if min(gap) < 0:
                continue
            index, terms = self._key_index(g.t, alpha), self._field_terms(g)
            for w in _component_basis(self.ring, gap):
                vec = self._coordinates(terms, index, w)
                if vec and ech.add(vec) and ech.rank == stop:
                    return ech
        return ech


def _boundary_column(T: int, rows: dict, signs: tuple) -> dict:
    """The column of the face T (bits) under phi in the rows `rows` of faces:
    the boundary face T ^ bit i, signed (signs = (1, -1) in the field) by the
    parity of i's position in T, or dropped when it is not in `rows`."""
    return {rows[T ^ b]: signs[p & 1] for p, b in enumerate(lowbits(T)) if T ^ b in rows}


def _element_matching(levels: list) -> dict:
    """{tau: tau + w} on the faces levels = (K_{t-1}, K_t, K_{t+1}), T
    bitmasks: for each generator w in index order, each face tau without w
    whose tau + w is a face of the next level, both still unpaired, is paired
    with it.  Every pair holds a t-face, so it stops once they are all paired."""
    free, up = [set(level) for level in levels], {}
    for b in lowbits(reduce(or_, levels[1] + levels[2], 0)):
        if not free[1]:
            break
        for low, high in zip(free, free[1:]):
            pairs = {F: F | b for F in low if not F & b and F | b in high}
            low.difference_update(pairs)
            high.difference_update(pairs.values())
            up.update(pairs)
    return up


def _arrangements(values) -> int:
    """Number of distinct orderings of the sequence values."""
    out = factorial(len(values))
    for v in set(values):
        out //= factorial(values.count(v))
    return out


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


def degrees_upto(ring: RingConfig, D):
    """All multidegrees 0 <= alpha <= D componentwise, lex order."""
    D = ring.as_mdeg(D)
    return [alpha for alpha in product(*(range(b + 1) for b in D))]


def generates_up_to(kz: KoszulComplex, candidates, t: int, D):
    """Whether monomial multiples of the candidate cycles span Z_t(I, S)_alpha
    for every alpha <= D.  Returns (ok, first failing degree or None)."""
    for g in candidates:
        if g.t != t or g.ideal != kz.ideal:
            raise ValueError("candidate in the wrong Koszul component")
        if not boundary(g).is_zero():
            raise ValueError("candidate is not a cycle")
    cands = [(g.multidegree(), g) for g in candidates if not g.is_zero()]
    for alpha in degrees_upto(kz.ring, D):
        target_dim = len(kz.cycle_space(t, alpha))
        if target_dim and kz.span_multiples(cands, alpha, stop=target_dim).rank < target_dim:
            return False, alpha
    return True, None
