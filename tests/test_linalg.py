import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from koszul_lab.fields import QQ, PrimeField
from koszul_lab.linalg import Echelon, kernel_basis

FIELDS = [QQ, PrimeField(5), PrimeField(32003)]


def combine(pairs, field=QQ):
    """Sum of c * v over (c, v) pairs of scalars and sparse vectors."""
    out = {}
    for c, v in pairs:
        for col, x in v.items():
            out[col] = field.coerce(out.get(col, 0) + c * x)
    return {col: x for col, x in out.items() if x}


def dense_rref(rows, ncols, field=QQ):
    """Independent oracle: dense exact Gauss-Jordan elimination.

    Returns the nonzero rows of the RREF, each normalized to 1 on its pivot,
    and the pivot columns.
    """
    mat = [[field.coerce(r.get(j, 0)) for j in range(ncols)] for r in rows]
    pivots = []
    nrows = len(mat)
    for col in range(ncols):
        rk = len(pivots)
        piv = next((i for i in range(rk, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        inv = field.coerce(Fraction(1, mat[rk][col]))
        mat[rk] = [field.coerce(inv * a) for a in mat[rk]]
        for i in range(nrows):
            if i != rk and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [field.coerce(a - factor * b) for a, b in zip(mat[i], mat[rk])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


def dense_kernel(columns, nrows, field=QQ):
    """The kernel read off the dense RREF: one vector per free column f, 1 at
    f and minus the RREF entries of column f at the pivot columns."""
    rref, pivots = dense_rref(transpose(columns, nrows), len(columns), field)
    kernel = []
    for free in range(len(columns)):
        if free not in pivots:
            vec = {free: 1}
            for row, p in zip(rref, pivots):
                if row[free]:
                    vec[p] = field.coerce(-row[free])
            kernel.append(vec)
    return kernel


def random_columns(rng, nrows, ncols, field=QQ, density=0.4):
    """A random nrows x ncols integer matrix as a list of sparse columns."""
    columns = []
    for _ in range(ncols):
        col = {}
        for i in range(nrows):
            v = field.coerce(rng.randint(-4, 4))
            if rng.random() < density and v:
                col[i] = v
        columns.append(col)
    return columns


def transpose(columns, nrows):
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def rank(vectors, field=QQ):
    ech = Echelon(field)
    for v in vectors:
        ech.add(v)
    return ech.rank


def test_rank_against_dense_oracle():
    # the rank of the columns equals the rank of the rows
    rng = random.Random(3)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        columns = random_columns(rng, nrows, ncols)
        assert rank(columns) == dense_rank(transpose(columns, nrows), ncols)


def test_kernel_vectors_annihilate():
    rng = random.Random(4)
    for _ in range(30):
        columns = random_columns(rng, rng.randint(1, 7), rng.randint(1, 7))
        ker = kernel_basis(columns, QQ)
        assert len(ker) == len(columns) - rank(columns)
        for v in ker:
            assert combine((c, columns[j]) for j, c in v.items()) == {}
        assert rank(ker) == len(ker)


def test_rank_nullity_gfp():
    rng = random.Random(5)
    f = PrimeField(101)
    for _ in range(20):
        columns = random_columns(rng, rng.randint(1, 7), rng.randint(1, 7))
        gfp = [{i: f.coerce(v) for i, v in col.items()} for col in columns]
        rk = rank(gfp, f)
        assert rk == len(columns) - len(kernel_basis(gfp, f))
        # small integer entries: mod-101 rank agrees with the rational rank here
        assert rk <= rank(columns)


def test_kernel_basis_matches_dense_rref():
    rng = random.Random(8)
    for field in FIELDS:
        for _ in range(40):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            columns = random_columns(rng, nrows, ncols, field)
            assert kernel_basis(columns, field) == dense_kernel(columns, nrows, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_of_zero_or_no_columns(field):
    assert kernel_basis([], field) == []
    assert kernel_basis([{}, {}, {}], field) == [{0: 1}, {1: 1}, {2: 1}]


_vector = st.dictionaries(st.integers(0, 6), st.integers(-3, 3), max_size=7)


@settings(max_examples=60)
@given(
    field=st.sampled_from(FIELDS),
    added=st.lists(_vector, min_size=1, max_size=5),
    coeffs=st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    probe=_vector,
)
def test_echelon_contains(field, added, coeffs, probe):
    added = [{c: field.coerce(x) for c, x in v.items()} for v in added]
    probe = {c: field.coerce(x) for c, x in probe.items()}
    ech = Echelon(field)
    for v in added:
        ech.add(v)
    before = {p: dict(row) for p, row in ech.rows.items()}
    combination = combine(((field.coerce(c), v) for c, v in zip(coeffs, added)), field)
    assert ech.contains(combination)
    assert all(ech.contains(v) for v in added)
    member = ech.contains(probe)
    assert ech.rows == before and ech.rank == len(before)
    grown = Echelon(field)
    grown.rows = before
    assert grown.add(probe) == (not member)


def test_echelon_incremental_add():
    ech = Echelon(QQ)
    assert ech.add({0: Fraction(1), 1: Fraction(2)})
    assert not ech.add({0: Fraction(2), 1: Fraction(4)})
    assert ech.add({1: Fraction(1)})
    assert ech.rank == 2
    assert not ech.add({0: Fraction(5), 1: Fraction(-1)})


def test_non_unit_pivot_leaves_integral_entries_as_ints():
    # over QQ a stored row is the primitive integer vector of its span
    ech = Echelon(QQ)
    assert ech.add({0: 2, 1: 4, 2: 3})
    assert ech.rows[0] == {0: 2, 1: 4, 2: 3}
    assert [type(v) for v in ech.rows[0].values()] == [int, int, int]
    assert ech.contains({0: 1, 1: 2, 2: Fraction(3, 2)})
    assert not ech.add({0: -4, 1: -8, 2: -6})
    assert ech.add({1: 6, 2: 4}) and ech.rows[1] == {1: 3, 2: 2}


def test_gfp_rows_have_pivot_one():
    f = PrimeField(7)
    ech = Echelon(f)
    assert ech.add({0: 3, 1: 5})
    assert ech.rows[0] == {0: 1, 1: 4}  # 3 * 5 = 1 mod 7, 5 * 5 = 4 mod 7
    assert ech.contains({0: 6, 1: 3}) and not ech.contains({0: 6, 1: 1})


_entry = st.sampled_from([1, -1, 2, -2, 3, Fraction(3, 2), Fraction(-5, 4)])
_frac_vector = st.dictionaries(st.integers(0, 5), _entry, max_size=6)


@settings(max_examples=80)
@given(vectors=st.lists(_frac_vector, min_size=1, max_size=6), probe=_frac_vector)
def test_fraction_input_matches_the_dense_oracle(vectors, probe):
    # denominators are cleared on entry and leads need not be units, yet every
    # stored row is a primitive int vector and the answers are the oracle's
    ech = Echelon(QQ)
    for v in vectors:
        ech.add(v)
    rref, pivots = dense_rref(vectors, 6)
    assert ech.rank == len(pivots) and sorted(ech.rows) == pivots
    assert ech.contains(probe) == (dense_rank(vectors + [probe], 6) == len(pivots))
    ech.back_substitute()
    for row, p in zip(rref, pivots):
        stored = ech.rows[p]
        assert all(type(x) is int for x in stored.values()) and gcd(*stored.values()) == 1
        assert {j: Fraction(x, stored[p]) for j, x in stored.items()} == {
            j: x for j, x in enumerate(row) if x
        }
    ker = kernel_basis(vectors, QQ)
    assert ker == dense_kernel(vectors, 6)
    assert all(type(x) is int for v in ker for x in v.values() if x.denominator == 1)
