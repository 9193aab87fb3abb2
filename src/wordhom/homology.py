"""Integer homology of based chain complexes.

Works against any complex object exposing ``dim(k)``, ``boundary_matrix(k)``,
``top_degree`` and ``complete``; both word complexes and bar complexes
qualify.  Betti numbers and torsion come from ranks and the Smith normal form
of the incoming boundary; no basis of cycles is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .errors import InvalidInput, TruncationError
from .linalg import SparseIntMatrix, smith_normal_form


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise InvalidInput("free rank cannot be negative", free_rank=self.free_rank)
        object.__setattr__(self, "torsion", tuple(self.torsion))
        prev = None
        for t in self.torsion:
            if t < 2:
                raise InvalidInput("torsion invariant factors must be at least 2", factor=t)
            if prev is not None and t % prev:
                raise InvalidInput(
                    "torsion factors must form a divisibility chain", torsion=self.torsion
                )
            prev = t

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        if self.is_trivial():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " ⊕ ".join(parts)

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def homology_of_pair(dim_k: int, outgoing: SparseIntMatrix, incoming: SparseIntMatrix) -> HomologyGroup:
    """Homology at a degree with given outgoing and incoming boundary matrices."""
    rank_out = len(smith_normal_form(outgoing))
    snf_in = smith_normal_form(incoming)
    free = dim_k - rank_out - len(snf_in)
    torsion = tuple(d for d in snf_in if d > 1)
    return HomologyGroup(free, torsion)


def _check_degree(complex_rep, k: int):
    if k < 0:
        raise InvalidInput("homology degree must be nonnegative", degree=k)
    if not complex_rep.complete and k > complex_rep.top_degree - 1:
        raise TruncationError(
            "the complex is truncated; homology at this degree would be unreliable",
            degree=k,
            top_degree=complex_rep.top_degree,
        )


def _matrix_or_zero(complex_rep, k: int) -> SparseIntMatrix:
    if 1 <= k <= complex_rep.top_degree:
        return complex_rep.boundary_matrix(k)
    # Degree 0 has no outgoing boundary; above the top of a complete complex
    # every group is zero.
    lower = complex_rep.dim(k - 1) if k - 1 <= complex_rep.top_degree else 0
    upper = complex_rep.dim(k) if k <= complex_rep.top_degree else 0
    return SparseIntMatrix.zero(max(lower, 0), max(upper, 0))


def homology(complex_rep, k: int) -> HomologyGroup:
    """Homology group of the complex at degree k.

    Degrees beyond the truncation of an incomplete complex raise
    TruncationError rather than returning a silently wrong answer.
    """
    _check_degree(complex_rep, k)
    if complex_rep.complete and k > complex_rep.top_degree:
        return HomologyGroup(0)
    d_k = _matrix_or_zero(complex_rep, k)
    d_k1 = _matrix_or_zero(complex_rep, k + 1)
    return homology_of_pair(complex_rep.dim(k), d_k, d_k1)


def homology_table(complex_rep, degrees=None) -> dict[int, HomologyGroup]:
    """Homology at several degrees, computing each Smith normal form once."""
    if degrees is None:
        top = complex_rep.top_degree
        degrees = range(0, top + 1 if complex_rep.complete else top)
    degrees = sorted(set(degrees))
    for k in degrees:
        _check_degree(complex_rep, k)
    wanted = sorted(
        {k for k in degrees if not (complex_rep.complete and k > complex_rep.top_degree)}
        | {k + 1 for k in degrees if not (complex_rep.complete and k > complex_rep.top_degree)}
    )
    snf_cache = {k: smith_normal_form(_matrix_or_zero(complex_rep, k)) for k in wanted}

    out = {}
    for k in degrees:
        if complex_rep.complete and k > complex_rep.top_degree:
            out[k] = HomologyGroup(0)
            continue
        rank_out = len(snf_cache[k])
        snf_in = snf_cache[k + 1]
        out[k] = HomologyGroup(
            complex_rep.dim(k) - rank_out - len(snf_in),
            tuple(d for d in snf_in if d > 1),
        )
    return out


def derangement_count(m: int) -> int:
    """Number of fixed-point-free permutations of m letters, by inclusion-exclusion."""
    if m < 0:
        raise InvalidInput("need m >= 0", m=m)
    return sum((-1) ** i * comb(m, i) * factorial(m - i) for i in range(m + 1))


def rank_formula(m: int) -> int:
    """Closed form for the top Betti number of the injective-word complex.

    Literal evaluation of the alternating falling-factorial expression
    (-1)^m (1 - sum_{i=0}^{m-1} (-1)^i m(m-1)...(m-i)); must agree with
    derangement_count.
    """
    if m < 0:
        raise InvalidInput("need m >= 0", m=m)
    total = 0
    for i in range(m):
        falling = 1
        for step in range(i + 1):
            falling *= m - step
        total += (-1) ** i * falling
    return (-1) ** m * (1 - total)
