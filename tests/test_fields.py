import random
from fractions import Fraction

import pytest

from koszul_lab.fields import (
    QQ,
    FieldError,
    PrimeField,
    RationalField,
    field_context,
    is_prime,
    parse_field,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31991, 32003}
    for n in range(2, 40):
        assert is_prime(n) == all(n % d for d in range(2, n))
    for p in primes:
        assert is_prime(p)
    for n in (0, 1, -7, 4, 32001):
        assert not is_prime(n)


def test_rational_field_ops():
    f = QQ
    assert f.characteristic == 0 and f.name == "rat"
    a, b = Fraction(3, 4), Fraction(-2, 5)
    assert f.add(a, b) == Fraction(7, 20)
    assert f.mul(a, f.inv(a)) == 1
    assert f.is_zero(f.sub(a, a))
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_prime_field_ops():
    f = PrimeField(7)
    assert f.characteristic == 7
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1
    assert f.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert f.coerce(-1) == 6
    with pytest.raises(FieldError):
        PrimeField(6)


def test_field_axioms_random():
    rng = random.Random(0)
    for f in (QQ, PrimeField(101)):
        for _ in range(100):
            a = f.coerce(rng.randint(-20, 20))
            b = f.coerce(rng.randint(-20, 20))
            c = f.coerce(rng.randint(-20, 20))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(f.add(a, b), c) == f.add(f.mul(a, c), f.mul(b, c))
            assert f.add(a, f.neg(a)) == f.zero


def test_field_context_and_parse():
    assert isinstance(field_context("rat"), RationalField)
    assert isinstance(field_context(None), RationalField)
    assert field_context(5).p == 5
    assert parse_field("p=32003").p == 32003
    assert parse_field("rat") == QQ
    with pytest.raises(FieldError):
        parse_field("gf7")


def test_fields_hashable_comparable():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert len({QQ, RationalField(), PrimeField(5), PrimeField(5)}) == 2
