import random
from fractions import Fraction

import pytest

from koszul_lab.fields import QQ, PrimeField
from koszul_lab.linalg import (
    Echelon,
    SparseMatrix,
    in_span,
    kernel_basis,
    rank,
)


def combine(pairs, field=QQ):
    """Sum of c * v over (c, v) pairs of scalars and sparse vectors."""
    out = {}
    for c, v in pairs:
        for col, x in v.items():
            out[col] = field.add(out.get(col, field.zero), field.mul(c, x))
    return {col: x for col, x in out.items() if not field.is_zero(x)}


def dense_rank(rows, ncols):
    """Independent oracle: dense fraction-exact Gaussian elimination."""
    mat = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rk = 0
    col = 0
    nrows = len(mat)
    while rk < nrows and col < ncols:
        piv = next((i for i in range(rk, nrows) if mat[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        for i in range(nrows):
            if i != rk and mat[i][col] != 0:
                factor = mat[i][col] / mat[rk][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rk])]
        rk += 1
        col += 1
    return rk


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


def test_in_span_certificate():
    rng = random.Random(6)
    for _ in range(25):
        ncols = rng.randint(2, 8)
        vectors = []
        for _ in range(rng.randint(1, 6)):
            v = {j: Fraction(rng.randint(-3, 3)) for j in range(ncols)}
            vectors.append({j: c for j, c in v.items() if c})
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in vectors]
        target = combine(zip(coeffs, vectors))
        ok, cert = in_span(vectors, target, QQ)
        assert ok
        assert combine((c, vectors[i]) for i, c in cert.items()) == target


def test_in_span_negative():
    vectors = [{0: Fraction(1)}, {1: Fraction(1)}]
    ok, cert = in_span(vectors, {2: Fraction(1)}, QQ)
    assert not ok and cert is None


def test_echelon_express_tracks_combination():
    rng = random.Random(7)
    for _ in range(20):
        ncols = rng.randint(3, 8)
        originals = {}
        ech = Echelon(QQ, track=True)
        for tag in range(rng.randint(2, 6)):
            v = {j: Fraction(rng.randint(-3, 3)) for j in range(ncols)}
            v = {j: c for j, c in v.items() if c}
            originals[tag] = v
            ech.add(v, tag=tag)
        # any random combination of the originals must be expressible
        want = {t: Fraction(rng.randint(-2, 2)) for t in originals}
        target = combine((c, originals[t]) for t, c in want.items())
        combo = ech.express(target)
        assert combo is not None
        assert combine((c, originals[t]) for t, c in combo.items()) == target


def test_echelon_incremental_add():
    ech = Echelon(QQ)
    assert ech.add({0: Fraction(1), 1: Fraction(2)})
    assert not ech.add({0: Fraction(2), 1: Fraction(4)})
    assert ech.add({1: Fraction(1)})
    assert ech.rank == 2
    assert not ech.add({0: Fraction(5), 1: Fraction(-1)})


def test_express_requires_tracking():
    ech = Echelon(QQ)
    ech.add({0: Fraction(1)})
    with pytest.raises(ValueError):
        ech.express({0: Fraction(1)})


def test_sparse_matrix_shape_ops():
    M = SparseMatrix(2, 3, {(0, 1): Fraction(2), (1, 2): Fraction(-1)})
    assert M.columns() == [{}, {0: Fraction(2)}, {1: Fraction(-1)}]
    assert M.apply({1: Fraction(3)}, QQ) == {0: Fraction(6)}
