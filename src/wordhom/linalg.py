"""Sparse exact integer matrices and Smith normal form.

Everything here is arbitrary-precision integer arithmetic; there is no
floating point anywhere.  The Smith normal form uses integer-preserving
(unimodular) row and column operations only, with a fixed pivot policy:
the pivot row is the lowest-index row among the shortest live rows, and the
pivot column is that row's entry of least absolute value, ties broken by the
fewest nonzeros in the column, then by the lowest column index.  Live rows
are kept in buckets by length, so choosing a pivot never scans the whole
matrix.  The policy is part of the contract so that runs are reproducible;
invariant factors are unique, so they (and every result built on them) do
not depend on it.
"""

from __future__ import annotations

from math import gcd


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class SparseIntMatrix:
    """Immutable sparse integer matrix in coordinate form."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        data = {}
        if entries is not None:
            if isinstance(entries, dict):
                triples = [(r, c, v) for (r, c), v in entries.items()]
            else:
                triples = [(r, c, v) for r, c, v in entries]
            for r, c, v in triples:
                if not 0 <= r < rows or not 0 <= c < cols:
                    raise ValueError(f"entry ({r},{c}) out of bounds")
                if (r, c) in data:
                    raise ValueError(f"duplicate coordinate ({r},{c})")
                if v:
                    data[(r, c)] = v
        object.__setattr__(self, "_entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("SparseIntMatrix is immutable")

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseIntMatrix":
        return SparseIntMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "SparseIntMatrix":
        return SparseIntMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def from_dense(dense) -> "SparseIntMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        data = {}
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged dense matrix")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = v
        return SparseIntMatrix(rows, cols, data)

    # -- queries -------------------------------------------------------
    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, r: int, c: int) -> int:
        return self._entries.get((r, c), 0)

    def nnz(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def is_zero(self) -> bool:
        return not self._entries

    def to_dense(self):
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._entries.items():
            dense[r][c] = v
        return dense

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and self.shape == other.shape
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self._entries.items()))))

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- algebra ---------------------------------------------------------
    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        by_col_of_self: dict[int, list] = {}
        for (r, k), v in self._entries.items():
            by_col_of_self.setdefault(k, []).append((r, v))
        acc: dict[tuple, int] = {}
        for (k, c), w in other._entries.items():
            hits = by_col_of_self.get(k)
            if not hits:
                continue
            for r, v in hits:
                key = (r, c)
                val = acc.get(key, 0) + v * w
                if val:
                    acc[key] = val
                else:
                    del acc[key]
        return SparseIntMatrix(self.rows, other.cols, acc)

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self._entries.items()}
        )

    def permuted(self, row_perm, col_perm) -> "SparseIntMatrix":
        """Apply row and column permutations (maps old index to new index)."""
        return SparseIntMatrix(
            self.rows,
            self.cols,
            {(row_perm[r], col_perm[c]): v for (r, c), v in self._entries.items()},
        )

    def to_coordinates(self) -> list:
        """Sorted coordinate list [[row, col, value], ...]."""
        return [[r, c, v] for (r, c), v in sorted(self._entries.items())]


def smith_normal_form(mat: SparseIntMatrix) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    The list has length rank(mat) and each factor is positive.  The zero
    matrix gives the empty list.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in mat.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    # Row length -> live rows of that length; no bucket is ever empty.
    by_len: dict[int, set[int]] = {}
    for i, rowd in rows.items():
        by_len.setdefault(len(rowd), set()).add(i)

    def move_row(i, old, new):
        # Move row i from the bucket of length old to that of length new;
        # length 0 has no bucket.
        if old:
            bucket = by_len[old]
            bucket.discard(i)
            if not bucket:
                del by_len[old]
        if new:
            bucket = by_len.get(new)
            if bucket is None:
                by_len[new] = {i}
            else:
                bucket.add(i)

    def set_entry(i, j, v):
        row = rows.get(i)
        if v:
            if row is None:
                rows[i] = {j: v}
                move_row(i, 0, 1)
            else:
                if j not in row:
                    n = len(row)
                    move_row(i, n, n + 1)
                row[j] = v
            s = cols.get(j)
            if s is None:
                cols[j] = {i}
            else:
                s.add(i)
        elif row is not None and j in row:
            n = len(row)
            del row[j]
            if not row:
                del rows[i]
            move_row(i, n, n - 1)
            s = cols[j]
            s.discard(i)
            if not s:
                del cols[j]

    def clear_in_column(pr, i, c):
        # Zero the entry (i, c) against the pivot row pr, unimodularly.
        prow = rows[pr]
        a = prow[c]
        b = rows[i][c]
        if b % a == 0:
            q = b // a
            irow = rows[i]
            for j, v in list(prow.items()):
                w = irow.get(j, 0) - q * v
                set_entry(i, j, w)
        else:
            g, x, y = xgcd(a, b)
            ag = a // g
            bg = b // g
            old_pr = dict(prow)
            old_i = dict(rows[i])
            for j in set(old_pr) | set(old_i):
                v1 = old_pr.get(j, 0)
                v2 = old_i.get(j, 0)
                set_entry(pr, j, x * v1 + y * v2)
                set_entry(i, j, ag * v2 - bg * v1)

    def clear_in_row(r, c_pivot, j):
        # Zero the entry (r, j) against the pivot column c_pivot.
        a = rows[r][c_pivot]
        b = rows[r][j]
        if b % a == 0:
            q = b // a
            for i in list(cols[c_pivot]):
                w = rows[i].get(j, 0) - q * rows[i][c_pivot]
                set_entry(i, j, w)
        else:
            g, x, y = xgcd(a, b)
            ag = a // g
            bg = b // g
            for i in set(cols.get(c_pivot, ())) | set(cols.get(j, ())):
                irow = rows.get(i, {})
                v1 = irow.get(c_pivot, 0)
                v2 = irow.get(j, 0)
                set_entry(i, c_pivot, x * v1 + y * v2)
                set_entry(i, j, ag * v2 - bg * v1)

    diag: list[int] = []
    while rows:
        pr = min(by_len[min(by_len)])
        prow = rows[pr]
        pc = min(prow, key=lambda j: (abs(prow[j]), len(cols[j]), j))
        while True:
            col_others = [i for i in cols[pc] if i != pr]
            for i in col_others:
                if i in rows and pc in rows[i]:
                    clear_in_column(pr, i, pc)
            row_others = [j for j in rows[pr] if j != pc]
            if not row_others:
                if len(cols[pc]) == 1:
                    break
                continue
            for j in row_others:
                if j in rows[pr]:
                    clear_in_row(pr, pc, j)
            if len(rows[pr]) == 1 and len(cols[pc]) == 1:
                break
        diag.append(abs(rows[pr][pc]))
        set_entry(pr, pc, 0)

    # Normalize the diagonal into a divisibility chain; gcd/lcm on a pair of
    # diagonal entries is realizable by unimodular operations.
    diag.sort()
    changed = True
    while changed:
        changed = False
        for t in range(len(diag) - 1):
            a, b = diag[t], diag[t + 1]
            if b % a:
                g = gcd(a, b)
                diag[t], diag[t + 1] = g, a * b // g
                changed = True
    return diag


def rank(mat: SparseIntMatrix) -> int:
    """Exact rank over the rationals."""
    return len(smith_normal_form(mat))


def rank_mod_p(mat: SparseIntMatrix, p: int) -> int:
    """Rank over F_p; used as a cross-check of the exact rank, never instead of it."""
    pivots: dict[int, dict[int, int]] = {}
    rank_count = 0
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in mat.items():
        vp = v % p
        if vp:
            rows.setdefault(r, {})[c] = vp
    for row in rows.values():
        current = dict(row)
        while current:
            c = min(current)
            if c in pivots:
                factor = current[c]
                for j, v in pivots[c].items():
                    w = (current.get(j, 0) - factor * v) % p
                    if w:
                        current[j] = w
                    else:
                        current.pop(j, None)
            else:
                inv = pow(current[c], p - 2, p)
                pivots[c] = {j: (v * inv) % p for j, v in current.items()}
                rank_count += 1
                break
    return rank_count
