"""Monomials, block gradings, monomial ideals and their combinatorial invariants.

Monomials are exponent tuples of length n over a RingConfig with d blocks of
sizes (m_1, ..., m_d); variable order is block-major.  Multidegrees are tuples
of length d (plain ints are accepted for d = 1 and normalized).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, groupby, product
from math import comb
from operator import add, le

DEFAULT_COMPONENT_CEILING = 50_000


class InfeasibleError(RuntimeError):
    """A requested component exceeds the configured size ceiling."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class RingConfig:
    """Polynomial ring K[x_ij] with deg x_ij = e_i in Z^d; == and hash read
    the blocks alone."""

    def __init__(self, blocks):
        blocks = tuple(int(m) for m in blocks)
        if len(blocks) < 1 or any(m < 1 for m in blocks):
            raise ValueError(f"invalid block sizes {blocks}")
        # the slice of each block's variables for `mdeg`, d and n, set once
        ends = list(accumulate(blocks))
        self.blocks, self.d, self.n = blocks, len(blocks), ends[-1]
        self._parts = tuple(map(slice, [0] + ends, ends))

    def __eq__(self, other):
        return isinstance(other, RingConfig) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def block_slices(self):
        return [(part.start, part.stop) for part in self._parts]

    def block_of(self, var: int) -> int:
        if not 0 <= var < self.n:
            raise IndexError(f"variable index {var} out of range")
        return next(i for i, part in enumerate(self._parts) if var < part.stop)

    def var(self, k: int) -> tuple:
        """Exponent tuple of the k-th variable (0-based)."""
        if not 0 <= k < self.n:
            raise IndexError(f"variable index {k} out of range")
        return tuple(1 if i == k else 0 for i in range(self.n))

    def one(self) -> tuple:
        return (0,) * self.n

    def mdeg(self, m: tuple) -> tuple:
        """Multidegree in Z^d: per-block exponent sums."""
        return tuple(map(sum, map(m.__getitem__, self._parts)))

    def as_mdeg(self, alpha) -> tuple:
        if isinstance(alpha, int):
            if self.d != 1:
                raise ValueError("integer degree given for a multigraded ring")
            return (alpha,)
        alpha = tuple(map(int, alpha))
        if len(alpha) != self.d:
            raise ValueError(f"multidegree {alpha} has wrong length")
        return alpha

    def var_name(self, k: int) -> str:
        i = self.block_of(k)
        return f"x{k + 1}" if self.d == 1 else f"x{i + 1}{k - self._parts[i].start + 1}"

    def monomial_str(self, m: tuple) -> str:
        if not any(m):
            return "1"
        parts = []
        for k, e in enumerate(m):
            if e == 1:
                parts.append(self.var_name(k))
            elif e > 1:
                parts.append(f"{self.var_name(k)}^{e}")
        return "*".join(parts)


def lowbits(T: int) -> list:
    """The set bits of the bitmask T, lowest first, one step per set bit."""
    bits = []
    while T:
        low = T & -T
        bits.append(low)
        T ^= low
    return bits


def total_deg(m: tuple) -> int:
    return sum(m)


def mon_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mon_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def mon_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def mon_key(m: tuple):
    """Sort key for graded lex with the first variable largest."""
    return (sum(m), tuple(-e for e in m))


def _bounded_compositions(total: int, caps: tuple, ties=()):
    """Every exponent tuple w with |w| = `total`, w <= caps componentwise and
    w_k <= w_{k-1} wherever ties[k], lex-descending; none if none exists.

    The first w is filled greedily, each entry as large as its cap, its tie
    and what is left of the total allow; each next one lowers the last entry
    that can still be lowered, whose successors can hold one more, and refills
    the entries after it greedily.  Nothing recurses, so any length works.
    """
    # a tied entry is capped by its predecessor's cap too
    n, caps, tied = len(caps), list(caps), [False] * len(caps)
    for k in range(1, min(n, len(ties))):
        if ties[k]:
            tied[k], caps[k] = True, min(caps[k], caps[k - 1])
    if not 0 <= total <= sum(caps) or min(caps, default=0) < 0:
        return
    w, k, s = [0] * n, 0, total
    while True:
        for i in range(k, n):  # refill w[k:] greedily to the sum s
            x = min(caps[i], w[i - 1]) if tied[i] else caps[i]
            w[i] = x = x if x < s else s
            s -= x
        yield tuple(w)
        room = 0  # sum(caps[k + 1:]), the most that w[k + 1:] can hold, and s their sum
        for k in range(n - 1, -1, -1):
            x = w[k]
            if x:
                free, e = room, k + 1
                while e < n and tied[e]:  # the entries tied to w[k] are capped by x - 1
                    free -= max(caps[e] - x + 1, 0)
                    e += 1
                if free > s:
                    break
            s += x
            room += caps[k]
        else:
            return
        w[k], s, k = x - 1, s + 1, k + 1


def component_basis(ring: RingConfig, alpha) -> tuple:
    """All monomials of multidegree alpha, in the fixed (graded lex) order.

    The tuple is memoised per (ring, multidegree) and shared by every caller.
    """
    return _component_basis(ring, ring.as_mdeg(alpha))


@lru_cache(maxsize=None)
def _component_basis(ring: RingConfig, alpha: tuple) -> tuple:
    # the blocks' lex-descending lists multiply into the graded lex order
    per_block = (_bounded_compositions(c, (c,) * m) for c, m in zip(alpha, ring.blocks))
    return tuple(sum(parts, ()) for parts in product(*per_block))


def component_dim(ring: RingConfig, alpha) -> int:
    return _component_dim(ring, ring.as_mdeg(alpha))


def _component_dim(ring: RingConfig, alpha: tuple) -> int:
    if any(a < 0 for a in alpha):
        return 0
    dim = 1
    for c, m in zip(alpha, ring.blocks):
        dim *= comb(c + m - 1, m - 1)
    return dim


class MonomialIdeal:
    """Monomial ideal stored by its minimal generators in the fixed order."""

    def __init__(self, ring: RingConfig, gens):
        self.ring = ring
        gens = {tuple(int(e) for e in g) for g in gens}
        for g in gens:
            if len(g) != ring.n:
                raise ValueError(f"generator {g} has wrong length")
            if any(e < 0 for e in g):
                raise ValueError(f"generator {g} has negative exponent")
        if ring.one() in gens:
            raise ValueError("unit ideal: the paper assumes proper ideals")
        # distinct monomials of one total degree never divide each other, so
        # each degree is tested only against the minimal generators below it
        minimal = []
        for _, same in groupby(sorted(gens, key=mon_key), key=total_deg):
            minimal += [g for g in same if not any(mon_divides(h, g) for h in minimal)]
        self.gens = tuple(minimal)
        self.r = len(minimal)

    def contains(self, m: tuple) -> bool:
        return any(mon_divides(g, m) for g in self.gens)

    def gen_index(self, g: tuple) -> int:
        """1-based index of a generator, matching the paper's e_i labels."""
        return self.gens.index(tuple(g)) + 1

    def max_gen_degree(self) -> int:
        return max(total_deg(g) for g in self.gens) if self.gens else 0

    def is_equigenerated(self):
        """The common multidegree of the generators, or None."""
        degs = {self.ring.mdeg(g) for g in self.gens}
        return next(iter(degs)) if len(degs) == 1 else None

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        names = ", ".join(self.ring.monomial_str(g) for g in self.gens)
        return f"MonomialIdeal({names})"


def power_ideal(ring: RingConfig, c) -> MonomialIdeal:
    """The product ideal m^c = prod_i m_i^{c_i}; minimal gens = S_c monomials.
    InfeasibleError is raised, before any is built, when dim S_c is over the
    default ceiling."""
    c = ring.as_mdeg(c)
    if any(ci < 0 for ci in c):
        raise ValueError(f"negative power vector {c}")
    if all(ci == 0 for ci in c):
        raise ValueError("zero power vector")
    r = _component_dim(ring, c)
    if r > DEFAULT_COMPONENT_CEILING:
        raise InfeasibleError(f"m^{c} has {r} generators, over the ceiling "
                              f"{DEFAULT_COMPONENT_CEILING}", estimate=r)
    return MonomialIdeal(ring, component_basis(ring, c))


def quotient_component_dim(I: MonomialIdeal, alpha) -> int:
    """dim [S/I]_alpha: monomials of multidegree alpha outside I."""
    return sum(1 for m in component_basis(I.ring, alpha) if not I.contains(m))


def monomial_quotient_dim(I: MonomialIdeal) -> int:
    """Krull dimension of S/I by exhaustive search over variable subsets."""
    n = I.ring.n
    supports = [frozenset(k for k in range(n) if g[k] > 0) for g in I.gens]
    best = 0
    for size in range(n, 0, -1):
        for Y in combinations(range(n), size):
            outside = set(range(n)) - set(Y)
            if all(s & outside for s in supports):
                return size
    return best


def power_containment(I: MonomialIdeal, k: int) -> bool:
    """True iff every monomial of total degree k lies in I."""
    if k < 0:
        raise ValueError("negative power")
    # the monomials of degree k in n variables, memoised as a standard-graded component
    return all(map(I.contains, _component_basis(RingConfig((I.ring.n,)), (k,))))


def _int_list(value, what) -> tuple:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def ideal_from_dict(data: dict) -> MonomialIdeal:
    """Load an ideal from the JSON schema:
    {"blocks": [...], "generators": [[e, ...], ...]} or
    {"blocks": [...], "power": [c1, ..., cd]}, with integer entries only;
    any other key is a ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"ideal must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {"blocks", "generators", "power"})
    if unknown:
        raise ValueError(f"ideal dict has unknown keys {unknown}")
    if "power" in data and "generators" in data:
        raise ValueError("ideal dict has both 'generators' and 'power'; give one")
    if "blocks" not in data or not ("power" in data or "generators" in data):
        raise ValueError(f"ideal needs 'blocks' and 'generators' or 'power', got {list(data)}")
    ring = RingConfig(_int_list(data["blocks"], "blocks"))
    if "power" in data:
        return power_ideal(ring, _int_list(data["power"], "power"))
    gens = data["generators"]
    if not isinstance(gens, list):
        raise ValueError(f"generators must be a list, got {gens!r}")
    return MonomialIdeal(ring, [_int_list(g, "a generator") for g in gens])
