"""Exact sparse linear algebra over QQ or GF(p).

Vectors are dicts {index: nonzero scalar}, with scalars already coerced into
the field; a matrix is a list of such vectors, one per column.  `Echelon` is
an incremental row echelon that gives ranks and span membership, and
`kernel_basis` reads an RREF kernel basis off it.  Arithmetic is native: over
GF(p) every result is reduced `% p`, over QQ integer rows stay ints as long
as the pivots are units, and integral entries are stored as ints.
"""

from __future__ import annotations


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
        if p:
            self.rows[piv] = {c: v * inv % p for c, v in rem.items()}
        else:
            # a non-unit pivot makes Fractions; integral ones are stored as ints,
            # so that later eliminations against this row stay in int arithmetic
            self.rows[piv] = {
                c: x.numerator if (x := v * inv).denominator == 1 else x
                for c, v in rem.items()
            }
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


def kernel_basis(columns: list, field) -> list:
    """RREF basis of the kernel of the matrix with these columns.

    There is one vector per free (non-pivot) column f: it is 1 at f, 0 at
    every other free column, and otherwise nonzero only at pivot columns,
    which are all smaller than f.
    """
    rows = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    ech = Echelon(field)
    for row in rows.values():
        ech.add(row)
    ech.back_substitute()
    basis = {f: {f: 1} for f in range(len(columns)) if f not in ech.rows}
    # an RREF row is nonzero only on its pivot and on free columns
    for p, row in ech.rows.items():
        for f, v in row.items():
            if f != p:
                basis[f][p] = field.coerce(-v)
    return list(basis.values())
