"""Exact sparse linear algebra over QQ or GF(p), fraction-free.

Vectors are dicts {index: nonzero scalar}, with scalars already coerced into
the field; a matrix is a list of such vectors, one per column.  `Echelon` is
an incremental row echelon that gives ranks and span membership, and
`kernel_basis` reads an RREF kernel basis off it.  A row of `Echelon` is an
integer vector: residues with pivot 1 over GF(p), primitive (content 1) with
a positive pivot over QQ, where denominators are cleared once on entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Echelon:
    """Incremental row echelon form; pivot = smallest column of each new row."""

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot col -> row dict

    @property
    def rank(self):
        return len(self.rows)

    def _eliminate(self, row, c, piv):
        """row <- a row - b piv in place, a and b the leads piv[c] and row[c]
        over their gcd; a = 1 over GF(p) and for a unit pivot over QQ."""
        a, b, p = piv[c], row[c], self.field.characteristic
        if a != 1:
            a, b = a // (g := gcd(a, b)), b // g
        if a != 1:
            for col in row:
                row[col] *= a
        for col, v in piv.items():
            newv = row.get(col, 0) - b * v
            if p:
                newv %= p
            if newv:
                row[col] = newv
            else:
                row.pop(col, None)

    def _store(self, row, c):
        """Keep row under its pivot c: scaled to pivot 1 over GF(p), and over
        QQ divided by its content, signed so that the pivot is positive."""
        lead, p = row[c], self.field.characteristic
        if p and lead != 1:
            s = pow(lead, -1, p)
            row = {k: v * s % p for k, v in row.items()}
        elif lead != 1:
            g = gcd(*row.values()) if lead > 0 else -gcd(*row.values())
            row = row if g == 1 else {k: v // g for k, v in row.items()}
        self.rows[c] = row

    def _reduce(self, row):
        """Remainder of a copy of row against the echelon, and its pivot."""
        row = {c: v for c, v in row.items() if v}
        # over QQ a sum of ints is an int, and one Fraction makes it a Fraction
        if not self.field.characteristic and not isinstance(sum(row.values()), int):
            d = lcm(*(v.denominator for v in row.values()))
            row = {c: (v * d).numerator for c, v in row.items()}
        while row:
            c = min(row)
            if c not in self.rows:
                return row, c
            self._eliminate(row, c, self.rows[c])
        return row, None

    def contains(self, row) -> bool:
        """Whether row lies in the span; the echelon is left unchanged."""
        return self._reduce(row)[1] is None

    def add(self, row):
        """Insert a row; returns True iff it enlarged the span."""
        rem, piv = self._reduce(row)
        if piv is not None:
            self._store(rem, piv)
        return piv is not None

    def back_substitute(self):
        """Make the echelon fully reduced: an RREF whose rows keep their pivots.

        Rows are reduced from the largest pivot down, so each row clears its
        other pivot columns against rows that are already reduced; those carry
        no pivot column but their own, so one pass over each row suffices.
        """
        for c in sorted(self.rows, reverse=True):
            row = self.rows[c]
            for p in [k for k in row if k != c and k in self.rows]:
                self._eliminate(row, p, self.rows[p])
            self._store(row, c)


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
    # an RREF row is nonzero only on its pivot and on free columns; the pivot
    # (1 over GF(p)) is divided out here, so integral entries stay ints
    for p, row in ech.rows.items():
        for f, v in row.items():
            if f != p:
                basis[f][p] = field.coerce(-v if row[p] == 1 else Fraction(-v, row[p]))
    return list(basis.values())
