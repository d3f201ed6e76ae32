from fractions import Fraction

import pytest

from koszul_lab.fields import (
    QQ,
    FieldError,
    PrimeField,
    RationalField,
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
    # integers, integral Fractions included, are native ints
    assert type(f.coerce(-3)) is int
    assert type(f.coerce(Fraction(6, 2))) is int and f.coerce(Fraction(6, 2)) == 3
    assert f.coerce(Fraction(1, 2)) == Fraction(1, 2)


def test_prime_field_ops():
    f = PrimeField(7)
    assert f.characteristic == 7
    assert f.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert f.coerce(-1) == 6
    with pytest.raises(FieldError):
        PrimeField(6)


def test_parse_field():
    assert isinstance(parse_field("rat"), RationalField)
    assert parse_field("p=32003").p == 32003
    assert parse_field("rat") == QQ
    with pytest.raises(FieldError):
        parse_field("gf7")
    with pytest.raises(FieldError):
        parse_field("p=6")


def test_fields_hashable_comparable():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert len({QQ, RationalField(), PrimeField(5), PrimeField(5)}) == 2
