"""Betti tables and Green-Lazarsfeld index of Segre-Veronese rings.

Everything flows through the identity beta^T_{i,j} = dim H_i(m^c, S)_{jc}:
the presentation ring is never materialized.  Row i >= 1 is the window
i <= j < i + 1 + ceil(i / min(c)); the entries past it, with
(j - i - 1) min(c) >= i, are zero by the multigraded generator bound, so each
table row is a complete, certified computation.

The first entry of each row, beta_{i,i} = dim H_i(m^c, S)_{ic} for i >= 1,
is zero over every field and is recorded without a rank.  In degree ic,
K_{i+1} = 0, since its faces have deg u_T = (i+1)c, which exceeds ic.  K_i is
spanned by the faces e_T with |T| = i and coefficient 1, and K_{i-1} by the
e_T' with |T'| = i - 1 and a coefficient in S_c.  The generators of m^c are a
basis of S_c, so in this degree phi_i is the Koszul differential of Sym(S_c)
from exterior degree i, polynomial degree 0: e_T -> sum_t +-u_t e_{T - t}.
That map is injective over every field, because the key (T - t, u_t)
recovers T: the columns have disjoint supports, and none is empty.  So
H_i = ker phi_i / im phi_{i+1} = 0.

The linear strand beta_{i,i+1} is not ranked either: it is read off the
Euler characteristic of its column.  In degree jc, K(m^c, S) is a finite
complex with dim K_s = C(N, s) dim S_{(j-s)c}, N = r = dim S_c, so
sum_s (-1)^s beta_{s,j} = chi_j = sum_s (-1)^s C(N, s) dim S_{(j-s)c}, over
every field.  In column j = i + 1 every other entry is known: beta_{0,j} = 0;
beta_{s,j} for 1 <= s < i has j >= s + 2, so it was ranked in row s or lies
past that row's cut, where it is zero; beta_{j,j} = 0 by the argument above;
and K_s = 0 for s > j, since deg u_T = sc exceeds jc.  Hence
beta_{i,i+1} = (-1)^i (chi_{i+1} - sum_{1 <= s < i} (-1)^s beta_{s,i+1}), and
a table ranks only the entries j >= i + 2.

The Green-Lazarsfeld index reads only the entries j >= i + 2 of the windows;
it stops at the first nonzero one, so no row past it is built.  The same
witness loop (`_index`) reads it off a computed table (`BettiTable.index`).

The index needs only whether beta_{i,j} is nonzero, and `green_lazarsfeld_index`
decides that from one fine block, at the balanced fine degree beta_0 of jc:
each block's j c_b split into m_b parts as evenly as possible, larger parts
first.  G = GL_{m_1} x ... x GL_{m_d} acts on S and fixes m^c, the Koszul
differential commutes with it, and so H = H_i(m^c, S)_{jc} is a polynomial
representation of G, of degree j c_b in block b, whose weights are its fine
degrees.  In characteristic 0, H is a sum of products of Schur modules S_mu,
mu a partition of j c_b with at most m_b parts.  The weight lambda occurs in
S_mu iff lambda <= mu in dominance order (the Kostka number K_{mu,lambda} is
positive; Fulton, Young Tableaux, 1997), and the balanced composition of
j c_b into m_b parts is dominated by every such mu.  So beta_0 is a weight of
every summand, and the block at beta_0 is nonzero iff H is.  Over GF(p) the
same holds when p > j max(c): the Schur algebra S(m, r) is semisimple for
p > r (Green, LNM 830; Doty-Erdmann-Martin-Nakano, Math. Z. 1999), so a
polynomial representation of degree j c_b <= j max(c) < p is a sum of simple
modules with Schur characters.  Below that bound the argument fails: for GL_2
in characteristic p, the Frobenius twist L(p, 0) has the weights (p, 0) and
(0, p) only, so it has no balanced weight, and the entry keeps the orbit sum
over every fine degree of jc.

`veronese_betti` decides each entry j >= i + 2 by the same rule
(`_deciding_degree`): where the argument holds, the balanced block is ranked
first, and a zero there is the exact entry beta_{i,j} = 0.  Only a nonzero
entry goes on to the orbit sum over jc, which a table needs whole; that sum
finds the balanced block's faces already grown and its H_i already ranked.
Below the bound the orbit sum is the one rank, as for the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

from .fields import QQ
from .homology import KoszulComplex
from .rings import RingConfig, component_dim, power_ideal


@dataclass(frozen=True)
class SegreVeroneseSpec:
    blocks: tuple
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(int(m) for m in self.blocks))
        ring = RingConfig(self.blocks)
        object.__setattr__(self, "c", ring.as_mdeg(self.c))
        if any(ci < 1 for ci in self.c):
            raise ValueError("every c_i must be >= 1")

    @property
    def ring(self):
        return RingConfig(self.blocks)

    @property
    def min_c(self):
        return min(self.c)


@dataclass
class BettiTable:
    entries: dict  # (i, j) -> dim
    i_max: int
    windows: dict  # i -> (j_lo, j_cut)

    def entry(self, i, j):
        """Entry with window semantics: beyond the window the value is 0."""
        if (i, j) in self.entries:
            return self.entries[(i, j)]
        if i in self.windows and j >= self.windows[i][1]:
            return 0
        raise KeyError((i, j))

    def index(self) -> IndexResult:
        """The Green-Lazarsfeld index to row i_max, read off the entries."""
        return _index(self.i_max, lambda i: self.windows[i][1], self.entry)

    def to_dict(self):
        return {
            "entries": [
                {"i": i, "j": j, "dim": d, "certified": True}
                for (i, j), d in sorted(self.entries.items())
            ],
            "cap": self.i_max,
            "windows": {str(i): list(w) for i, w in sorted(self.windows.items())},
        }


def _window_cut(i: int, min_c: int) -> int:
    """Smallest j with (j - i - 1) min(c) >= i; entries beyond are zero."""
    return i + 1 + ceil(i / min_c)


def _euler(ring: RingConfig, c: tuple, j: int) -> int:
    """chi_j = sum_s (-1)^s dim K_s(m^c, S)_{jc} (module docstring)."""
    N = component_dim(ring, c)
    return sum(
        (-1) ** s * comb(N, s) * component_dim(ring, tuple((j - s) * a for a in c))
        for s in range(min(j, N) + 1)
    )


def veronese_betti(spec: SegreVeroneseSpec, i_max: int, field=QQ) -> BettiTable:
    """Graded Betti numbers of the Segre-Veronese ring up to row i_max; only
    the entries j >= i + 2 are ranked, beta_{i,i} = 0 and beta_{i,i+1} are
    recorded without a rank (module docstring).  Each ranked entry is first
    decided at its `_deciding_degree`, and only a nonzero one that is not
    already whole is ranked again as the orbit sum over jc.  A table with more
    entries than the ceiling is refused before any rank."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    kz, count = KoszulComplex(power_ideal(spec.ring, spec.c), field), 1
    for i in range(1, i_max + 1):
        count += _window_cut(i, spec.min_c) - i
        if count > kz.ceiling:
            break
    kz._check_ceiling(count, lambda: f"the table to row {i_max} has at least {count} entries,")
    entries, windows = {(0, 0): 1}, {0: (0, 1)}
    for i in range(1, i_max + 1):
        cut = _window_cut(i, spec.min_c)
        windows[i] = (i, cut)
        entries[(i, i)] = 0
        # column i + 1 above row i: ranked in the earlier rows, or zero past their cuts
        earlier = sum((-1) ** s * entries.get((s, i + 1), 0) for s in range(1, i))
        entries[(i, i + 1)] = (-1) ** i * (_euler(kz.ring, spec.c, i + 1) - earlier)
        for j in range(i + 2, cut):
            at, jc = _deciding_degree(spec, j, field), tuple(j * a for a in spec.c)
            dim = kz.homology_dim(i, at)
            entries[(i, j)] = kz.homology_dim(i, jc) if dim and at != jc else dim
    return BettiTable(entries, i_max, windows)


@dataclass
class IndexResult:
    """Green-Lazarsfeld index: exact with a witness, or a range-exhausted bound."""

    exact: bool
    value: int  # the index when exact, else the verified lower bound i_max
    witness: tuple | None  # violating (i, j) when exact

    def satisfies(self, p: int) -> bool:
        return self.value >= p

    def describe(self) -> str:
        if self.exact:
            return f"index = {self.value} (violation at {self.witness})"
        return f"index >= {self.value} (range exhausted)"


def green_lazarsfeld_index(spec: SegreVeroneseSpec, i_max: int, field=QQ) -> IndexResult:
    """Largest p <= i_max with t_i <= i + 1 for i = 1..p, from certified windows.

    Only the entries that can break the bound are computed: row by row, the
    beta_{i,j} with i + 2 <= j below the window cut, in increasing j.  The
    first nonzero one is the witness, and the rows after it are never built.
    The linear strand j <= i + 1 cannot decide the index and is not ranked.
    Each entry is decided at its `_deciding_degree` alone (module docstring).

    The rows stop at r = dim S_c, the number of generators of m^c: K_i = 0
    for i > r, so beta_{i,j} = 0 there and no such row can break the bound.
    Without a witness through row min(i_max, r) the bound holds through
    i_max, and the work does not grow with i_max past r.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    kz = KoszulComplex(power_ideal(spec.ring, spec.c), field)
    found = _index(min(i_max, kz.ideal.r), lambda i: _window_cut(i, spec.min_c),
                   lambda i, j: kz.homology_dim(i, _deciding_degree(spec, j, field)))
    return found if found.exact else IndexResult(False, i_max, None)


def _deciding_degree(spec: SegreVeroneseSpec, j: int, field) -> tuple:
    """A degree whose homology H_i is nonzero iff beta_{i,j} is, for every i:
    the balanced fine degree (`_balanced`) when the field's characteristic is
    0 or exceeds j max(c), else the multidegree jc, the orbit sum itself
    (module docstring)."""
    char = field.characteristic
    if char and char <= j * max(spec.c):
        return tuple(j * a for a in spec.c)
    return _balanced(spec, j)


def _balanced(spec: SegreVeroneseSpec, j: int) -> tuple:
    """The fine degree that splits each block's j c_b into m_b parts as evenly
    as possible, larger parts first."""
    beta = []
    for m, a in zip(spec.blocks, spec.c):
        q, r = divmod(j * a, m)
        beta += [q + 1] * r + [q] * (m - r)
    return tuple(beta)


def _index(i_max: int, cut, entry) -> IndexResult:
    """The index from entry(i, j) = beta_{i,j} for i = 1..i_max and
    i + 2 <= j < cut(i), row by row in increasing j: exact at the first
    nonzero entry, the witness, after which nothing is read."""
    for i in range(1, i_max + 1):
        for j in range(i + 2, cut(i)):
            if entry(i, j):
                return IndexResult(True, i - 1, (i, j))
    return IndexResult(False, i_max, None)
