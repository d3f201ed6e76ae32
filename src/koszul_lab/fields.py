"""Exact coefficient fields: arbitrary-precision rationals and prime fields GF(p).

Elements are plain Python numbers and linear algebra uses the native
operators on them: a rational is an int, or a Fraction when it is not an
integer; an element of GF(p) is an int residue in [0, p), and callers reduce
with `% p` after arithmetic.  A field supplies only `name`, `characteristic`
and `coerce`: elimination is fraction-free (`linalg`), so nothing inverts.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond desk scale."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of exact rationals.  Elements: int, or a non-integral Fraction."""

    name = "rat"
    characteristic = 0

    def coerce(self, x):
        x = x if isinstance(x, int) else Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rat")


QQ = RationalField()


class PrimeField:
    """GF(p) for a prime p.  Elements: int residues in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"p={p}"
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))


def parse_field(text: str):
    """Parse a CLI field choice: 'rat' or 'p=<prime>'."""
    if text == "rat":
        return QQ
    if text.startswith("p="):
        return PrimeField(int(text[2:]))
    raise FieldError(f"unrecognized field {text!r}; use 'rat' or 'p=<prime>'")

