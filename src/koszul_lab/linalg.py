"""Exact sparse linear algebra over a field context.

Vectors are dicts {column index: nonzero scalar}.  The workhorse is an
incremental row echelon that supports rank, kernel bases, span membership
with certificates, and coordinate extraction against a growing basis.
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
                cols[i] = field.add(cols.get(i, field.zero), field.mul(v, vec[j]))
        return {i: v for i, v in cols.items() if not field.is_zero(v)}

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


class Echelon:
    """Incremental row echelon form; pivot = smallest column of each new row.

    Rows are normalized to pivot value 1.  With track=True every echelon row
    carries the combination of originally added rows producing it, which gives
    span-membership certificates and coordinates.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        self.rows = {}  # pivot col -> row dict
        self.combos = {}  # pivot col -> {tag: coeff}

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, row, combo):
        f = self.field
        row = dict(row)
        while row:
            c = min(row)
            if c not in self.rows:
                return row, combo, c
            coef = row[c]
            piv = self.rows[c]
            for col, v in piv.items():
                newv = f.sub(row.get(col, f.zero), f.mul(coef, v))
                if f.is_zero(newv):
                    row.pop(col, None)
                else:
                    row[col] = newv
            if combo is not None:
                for tag, v in self.combos[c].items():
                    newv = f.sub(combo.get(tag, f.zero), f.mul(coef, v))
                    if f.is_zero(newv):
                        combo.pop(tag, None)
                    else:
                        combo[tag] = newv
        return row, combo, None

    def express(self, row):
        """Coefficients {tag: coeff} with row = sum coeff * added-row, or None."""
        if not self.track:
            raise ValueError("echelon built without tracking")
        rem, combo, _ = self._reduce(self._clean(row), {})
        if rem:
            return None
        return {t: self.field.neg(v) for t, v in combo.items()}

    def add(self, row, tag=None):
        """Insert a row; returns True iff it enlarged the span."""
        f = self.field
        combo = {tag: f.one} if self.track else None
        rem, combo, piv = self._reduce(self._clean(row), combo)
        if piv is None:
            return False
        inv = f.inv(rem[piv])
        self.rows[piv] = {c: f.mul(v, inv) for c, v in rem.items()}
        if self.track:
            self.combos[piv] = {t: f.mul(v, inv) for t, v in combo.items()}
        return True

    def _clean(self, row):
        f = self.field
        return {c: v for c, v in row.items() if not f.is_zero(v)}

    def back_substitute(self):
        """Make the echelon fully reduced (RREF)."""
        f = self.field
        for c in sorted(self.rows, reverse=True):
            piv = self.rows[c]
            for c2 in [k for k in self.rows if k < c]:
                row = self.rows[c2]
                if c in row:
                    coef = row[c]
                    for col, v in piv.items():
                        newv = f.sub(row.get(col, f.zero), f.mul(coef, v))
                        if f.is_zero(newv):
                            row.pop(col, None)
                        else:
                            row[col] = newv
                    if self.track:
                        comb2 = self.combos[c2]
                        for tag, v in self.combos[c].items():
                            newv = f.sub(comb2.get(tag, f.zero), f.mul(coef, v))
                            if f.is_zero(newv):
                                comb2.pop(tag, None)
                            else:
                                comb2[tag] = newv


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
        vec = {free: field.one}
        for p, row in ech.rows.items():
            if free in row:
                vec[p] = field.neg(row[free])
        basis.append(vec)
    return basis


def in_span(vectors, target, field):
    """(member, coeffs): coeffs[i] multiplies vectors[i] when member is True."""
    ech = Echelon(field, track=True)
    for i, v in enumerate(vectors):
        ech.add({c: field.coerce(x) for c, x in v.items()}, tag=i)
    coeffs = ech.express({c: field.coerce(x) for c, x in target.items()})
    if coeffs is None:
        return False, None
    return True, coeffs
