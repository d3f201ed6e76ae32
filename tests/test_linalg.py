import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from koszul_lab.fields import QQ, PrimeField
from koszul_lab.linalg import (
    Echelon,
    SparseMatrix,
    kernel_basis,
    rank,
)

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
        inv = field.inv(mat[rk][col])
        mat[rk] = [field.coerce(inv * a) for a in mat[rk]]
        for i in range(nrows):
            if i != rk and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [field.coerce(a - factor * b) for a, b in zip(mat[i], mat[rk])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


def random_sparse(rng, nrows, ncols, density=0.4):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = rng.randint(-4, 4)
                if v:
                    entries[(i, j)] = Fraction(v)
    return SparseMatrix(nrows, ncols, entries)


def test_rank_against_dense_oracle():
    rng = random.Random(3)
    for _ in range(30):
        M = random_sparse(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(M, QQ) == dense_rank(M.rows(), M.ncols)


def test_kernel_vectors_annihilate():
    rng = random.Random(4)
    for _ in range(30):
        M = random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7))
        ker = kernel_basis(M, QQ)
        assert len(ker) == M.ncols - rank(M, QQ)
        for v in ker:
            assert M.apply(v, QQ) == {}
        entries = {(r, c): x for r, v in enumerate(ker) for c, x in v.items()}
        assert rank(SparseMatrix(len(ker), M.ncols, entries), QQ) == len(ker)


def test_rank_nullity_gfp():
    rng = random.Random(5)
    f = PrimeField(101)
    for _ in range(20):
        M = random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7))
        rk = rank(M, f)
        assert rk == M.ncols - len(kernel_basis(M, f))
        # small integer entries: mod-101 rank agrees with the rational rank here
        assert rk <= rank(M, QQ)


def test_kernel_basis_matches_dense_rref():
    # the kernel read off the dense RREF: one vector per free column f, 1 at f
    # and minus the RREF entries of column f at the pivot columns
    rng = random.Random(8)
    for field in FIELDS:
        for _ in range(40):
            M = random_sparse(rng, rng.randint(1, 8), rng.randint(1, 8))
            rref, pivots = dense_rref(M.rows(), M.ncols, field)
            want = []
            for free in range(M.ncols):
                if free in pivots:
                    continue
                vec = {free: 1}
                for row, p in zip(rref, pivots):
                    if row[free]:
                        vec[p] = field.coerce(-row[free])
                want.append(vec)
            assert kernel_basis(M, field) == want


_vector = st.dictionaries(st.integers(0, 6), st.integers(-3, 3), max_size=7)


@settings(derandomize=True, max_examples=60, deadline=None)
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


def test_sparse_matrix_shape_ops():
    M = SparseMatrix(2, 3, {(0, 1): Fraction(2), (1, 2): Fraction(-1)})
    assert M.columns() == [{}, {0: Fraction(2)}, {1: Fraction(-1)}]
    assert M.apply({1: Fraction(3)}, QQ) == {0: Fraction(6)}
