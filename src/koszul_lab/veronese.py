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

The Green-Lazarsfeld index reads only the entries j >= i + 2 of the windows;
it stops at the first nonzero one, so no row past it is built.  The same
witness loop (`_index`) reads it off a computed table (`BettiTable.index`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .fields import QQ
from .homology import KoszulComplex
from .rings import RingConfig, power_ideal


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

    def t_i(self, i):
        """Largest j with a nonzero entry in row i, or None."""
        js = [j for (ii, j), d in self.entries.items() if ii == i and d > 0]
        return max(js) if js else None

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


def veronese_betti(spec: SegreVeroneseSpec, i_max: int, field=QQ) -> BettiTable:
    """Graded Betti numbers of the Segre-Veronese ring up to row i_max;
    beta_{i,i} = 0 for i >= 1 is recorded without a rank (module docstring)."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    kz = KoszulComplex(power_ideal(spec.ring, spec.c), field)
    entries, windows = {(0, 0): 1}, {0: (0, 1)}
    for i in range(1, i_max + 1):
        cut = _window_cut(i, spec.min_c)
        windows[i] = (i, cut)
        entries[(i, i)] = 0
        for j in range(i + 1, cut):
            entries[(i, j)] = kz.homology_dim(i, tuple(j * a for a in spec.c))
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
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    kz = KoszulComplex(power_ideal(spec.ring, spec.c), field)
    return _index(i_max, lambda i: _window_cut(i, spec.min_c),
                  lambda i, j: kz.homology_dim(i, tuple(j * a for a in spec.c)))


def _index(i_max: int, cut, entry) -> IndexResult:
    """The index from entry(i, j) = beta_{i,j} for i = 1..i_max and
    i + 2 <= j < cut(i), row by row in increasing j: exact at the first
    nonzero entry, the witness, after which nothing is read."""
    for i in range(1, i_max + 1):
        for j in range(i + 2, cut(i)):
            if entry(i, j):
                return IndexResult(True, i - 1, (i, j))
    return IndexResult(False, i_max, None)
