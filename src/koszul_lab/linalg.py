"""Exact sparse linear algebra over QQ or GF(p).

Vectors are dicts {column index: nonzero scalar}, with scalars already
coerced into the field.  The workhorse is an incremental row echelon that
supports rank, kernel bases in RREF, and span membership.  Arithmetic is
native: over GF(p) every result is reduced `% p`, over QQ integer rows stay
ints as long as the pivots are units.
"""

from __future__ import annotations


class SparseMatrix:
    """Immutable-ish sparse matrix with entries {(row, col): scalar}."""

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = dict(entries or {})

    def rows(self):
        out = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def columns(self):
        out = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def apply(self, vec: dict, field) -> dict:
        """Matrix times sparse column vector."""
        cols = {}
        for (i, j), v in self.entries.items():
            if j in vec:
                cols[i] = field.coerce(cols.get(i, 0) + v * vec[j])
        return {i: v for i, v in cols.items() if v}

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


class Echelon:
    """Incremental row echelon form; pivot = smallest column of each new row.

    Rows are normalized to pivot value 1 and hold coerced field elements.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot col -> row dict

    @property
    def rank(self):
        return len(self.rows)

    def _eliminate(self, row, coef, piv):
        """row -= coef * piv, in place."""
        p = self.field.characteristic
        for col, v in piv.items():
            newv = row.get(col, 0) - coef * v
            if p:
                newv %= p
            if newv:
                row[col] = newv
            else:
                row.pop(col, None)

    def _reduce(self, row):
        """Remainder of a copy of row against the echelon, and its pivot."""
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in self.rows:
                return row, c
            self._eliminate(row, row[c], self.rows[c])
        return row, None

    def contains(self, row) -> bool:
        """Whether row lies in the span; the echelon is left unchanged."""
        return self._reduce(row)[1] is None

    def add(self, row):
        """Insert a row; returns True iff it enlarged the span."""
        rem, piv = self._reduce(row)
        if piv is None:
            return False
        inv = self.field.inv(rem[piv])
        p = self.field.characteristic
        self.rows[piv] = {c: v * inv % p if p else v * inv for c, v in rem.items()}
        return True

    def back_substitute(self):
        """Make the echelon fully reduced (RREF).

        Rows are reduced from the largest pivot down, so each row clears its
        other pivot columns against rows that are already reduced; those carry
        no pivot column but their own, so one pass over each row suffices.
        """
        for c in sorted(self.rows, reverse=True):
            row = self.rows[c]
            for p in [k for k in row if k != c and k in self.rows]:
                self._eliminate(row, row[p], self.rows[p])


def rank(M: SparseMatrix, field) -> int:
    ech = Echelon(field)
    for row in M.rows():
        if row:
            ech.add({c: field.coerce(v) for c, v in row.items()})
    return ech.rank


def kernel_basis(M: SparseMatrix, field) -> list:
    """Basis of the right kernel as dicts {col: scalar}, in RREF.

    There is one vector per free (non-pivot) column f: it is 1 at f, 0 at
    every other free column, and otherwise nonzero only at pivot columns,
    which are all smaller than f.
    """
    ech = Echelon(field)
    for row in M.rows():
        if row:
            ech.add({c: field.coerce(v) for c, v in row.items()})
    ech.back_substitute()
    pivots = set(ech.rows)
    basis = []
    for free in range(M.ncols):
        if free in pivots:
            continue
        vec = {free: 1}
        for p, row in ech.rows.items():
            if free in row:
                vec[p] = field.coerce(-row[free])
        basis.append(vec)
    return basis
