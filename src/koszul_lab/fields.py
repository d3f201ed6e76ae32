"""Exact coefficient fields: arbitrary-precision rationals and prime fields GF(p).

A field context bundles the arithmetic callbacks used by all linear algebra.
Elements are plain Python values (Fraction for the rationals, int residues in
[0, p) for GF(p)), so there is no per-element wrapper overhead.
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
    """The field of exact rationals.  Elements: Fraction (ints coerce)."""

    name = "rat"
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rat")


class PrimeField:
    """GF(p) for a prime p.  Elements: int residues in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"p={p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))


def field_context(kind):
    """Build a field context: "rat" (or None) for the rationals, or an int
    prime p for GF(p)."""
    if kind is None or kind == "rat":
        return RationalField()
    return PrimeField(int(kind))


def parse_field(text: str):
    """Parse a CLI field choice: 'rat' or 'p=<prime>'."""
    if text == "rat":
        return field_context("rat")
    if text.startswith("p="):
        return field_context(int(text[2:]))
    raise FieldError(f"unrecognized field {text!r}; use 'rat' or 'p=<prime>'")


QQ = RationalField()
