"""Sparse exact integer matrices and Smith normal form.

Everything here is arbitrary-precision integer arithmetic; there is no
floating point anywhere.  The Smith normal form uses integer-preserving
(unimodular) row and column operations only, with a fixed pivot policy:
the pivot row is the lowest-index row among the shortest live rows, and the
pivot column is that row's entry of least absolute value, ties broken by the
fewest nonzeros in the column, then by the lowest column index.  When the
pivot leaves a nonzero remainder in its column, the pivot moves to the row
with the least |remainder| there, ties broken by the shorter row, then by
the lower row index.  Pivot rows come off one heap of (length, index)
entries, so choosing a pivot never scans the whole matrix; an entry whose
row has died or changed length since it was pushed is skipped.  The policy
is part of the contract so that runs are reproducible; invariant factors
are unique, so they (and every result built on them) do not depend on it.

The elimination is one Euclidean step at a time, down the pivot column and
along the pivot row alike.  Every other row of the pivot column is reduced
modulo the pivot by row_i -= q*row_p, with q the floor quotient of the two
column entries; this is the only operation that changes another row.  It
rewrites the row in one pass, touches the column sets only where the row
gains or loses a column, and pushes the row once more only if its length
changed.  If a remainder is left, the pivot moves as above and the step
repeats.  Once the pivot column holds only the pivot row, a column
operation changes that row alone.  If the pivot divides every entry of the
row, the row is deleted in one step.  Otherwise each other entry is reduced
modulo the pivot, and the row is pivoted again on its least entry (by the
same rule) until the pivot divides the row.  |pivot| drops on every pass in
either direction.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, isqrt

from .alphabet import Value
from .errors import InvalidInput


class SparseIntMatrix(Value):
    """Immutable sparse integer matrix in coordinate form.

    Entries are given as a ``{(row, col): value}`` dict; zero values are
    dropped.  The dict has no hash, so the matrix keeps its own.

    `identity`, `from_dense`, `to_dense`, `transpose`, `permuted` and the
    module's `rank` are public construction and inspection API; the tests
    build their oracle inputs with them.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if entries is None:
            entries = {}
        elif not isinstance(entries, dict):
            raise TypeError("entries must be a {(row, col): value} dict")
        for r, c in entries:
            if not 0 <= r < rows or not 0 <= c < cols:
                raise ValueError(f"entry ({r},{c}) out of bounds")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", {k: v for k, v in entries.items() if v})

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
        for perm, n in ((row_perm, self.rows), (col_perm, self.cols)):
            if sorted(perm) != list(range(n)):
                raise ValueError("row and column maps must be permutations")
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
    # (row length, row index) entries.  Every live row but the current pivot
    # has one whose length is still its length; the others are stale.
    heap = [(len(rowd), i) for i, rowd in rows.items()]
    heapify(heap)

    def unlink(i, j):
        # Row i has lost column j; drop the column once it holds no row.
        s = cols[j]
        s.discard(i)
        if not s:
            del cols[j]

    def refile(i, row, old):
        # Row i had old entries before the operation just done on it: drop
        # it if it is empty, and push it once more if its length changed.
        new = len(row)
        if not new:
            del rows[i]
        elif new != old:
            heappush(heap, (new, i))

    def subtract_multiple(i, q, prow):
        # row_i -= q * prow in one pass.  Every column of prow holds the
        # pivot row, so no column set empties or needs creating.
        irow = rows[i]
        old = len(irow)
        for j, v in prow.items():
            w = irow.get(j)
            if w is None:
                irow[j] = -q * v
                cols[j].add(i)
            else:
                w -= q * v
                if w:
                    irow[j] = w
                else:
                    del irow[j]
                    cols[j].discard(i)
        refile(i, irow, old)

    diag: list[int] = []
    while rows:
        n, pr = heappop(heap)
        prow = rows.get(pr)
        if prow is None or len(prow) != n:
            continue
        while True:
            least = min(map(abs, prow.values()))
            tied = [j for j, v in prow.items() if v == least or v == -least]
            pc = min(zip(map(len, map(cols.__getitem__, tied)), tied))[1]
            a = prow[pc]
            # Reduce the rest of the pivot column modulo the pivot.
            for i in [i for i in cols[pc] if i != pr]:
                q = rows[i][pc] // a
                if q:
                    subtract_multiple(i, q, prow)
            rest = [i for i in cols[pc] if i != pr]
            if rest:
                # Each remainder left is smaller than |a|: pivot again on the
                # row with the least one, then the shortest, then the lowest.
                # The row it leaves needs its heap entry back.
                heappush(heap, (len(prow), pr))
                pr = min(rest, key=lambda i: (abs(rows[i][pc]), len(rows[i]), i))
                prow = rows[pr]
                continue
            if a in (1, -1) or all(v % a == 0 for v in prow.values()):
                # Column operations would now zero the rest of the row
                # without touching any other row: delete it in one step.
                for j in prow:
                    unlink(pr, j)
                del rows[pr]
                diag.append(abs(a))
                break
            # The column operations col_j -= q*col_pc now touch only the pivot
            # row: reduce it modulo the pivot.  Some residue is nonzero and
            # smaller than |a|, so the next pivot of this row is smaller.
            old = len(prow)
            for j in [j for j in prow if j != pc]:
                w = prow[j] % a
                if w:
                    prow[j] = w
                else:
                    del prow[j]
                    unlink(pr, j)
            refile(pr, prow, old)

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


def require_prime(p) -> None:
    """Raise InvalidInput unless p is a prime int (not a bool), by trial division."""
    if type(p) is not int or p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise InvalidInput("the modulus must be a prime integer", p=p)


def rank_mod_p(mat: SparseIntMatrix, p: int) -> int:
    """Rank over F_p for a prime int p; used as a cross-check of the exact rank,
    never instead of it."""
    require_prime(p)
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
                inv = pow(current[c], -1, p)
                pivots[c] = {j: (v * inv) % p for j, v in current.items()}
                rank_count += 1
                break
    return rank_count
