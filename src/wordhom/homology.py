"""Integer homology of based chain complexes.

``homology_table`` is the one entry point.  It reads a ``ChainComplexRep``
(word complexes and bar complexes alike) through ``dim(k)``,
``boundary_matrix(k)``, ``top_degree`` and ``complete``.  Betti numbers and
torsion come from the ranks and the Smith normal form of the incoming
boundary; no basis of cycles is ever materialized.
"""

from __future__ import annotations

from math import comb, factorial

from .alphabet import Value
from .errors import InvalidInput, TruncationError
from .linalg import smith_normal_form


class HomologyGroup(Value):
    """Finitely generated abelian group in invariant-factor form."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise InvalidInput("free rank cannot be negative", free_rank=free_rank)
        torsion = tuple(torsion)
        prev = None
        for t in torsion:
            if t < 2:
                raise InvalidInput("torsion invariant factors must be at least 2", factor=t)
            if prev is not None and t % prev:
                raise InvalidInput(
                    "torsion factors must form a divisibility chain", torsion=torsion
                )
            prev = t
        super().__init__(free_rank, torsion)

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


def homology_table(complex_rep, degrees=None) -> dict[int, HomologyGroup]:
    """Homology at the given degrees, computing each Smith normal form once.

    By default every reliable degree: 0..top_degree of a complete complex,
    0..top_degree-1 of a truncated one.  One degree is
    ``homology_table(complex_rep, [k])[k]``.  A negative degree raises
    InvalidInput, and a degree at or beyond the truncation of an incomplete
    complex raises TruncationError rather than returning a silently wrong
    answer.
    """
    top = complex_rep.top_degree
    complete = complex_rep.complete
    if degrees is None:
        degrees = range(0, top + 1 if complete else top)
    degrees = sorted(set(degrees))
    for k in degrees:
        if k < 0:
            raise InvalidInput("homology degree must be nonnegative", degree=k)
        if not complete and k > top - 1:
            raise TruncationError(
                "the complex is truncated; homology at this degree would be unreliable",
                degree=k,
                top_degree=top,
            )
    # d_0 and d_{top+1} are zero maps, with no invariant factors, so only
    # d_1..d_top need an SNF.
    snf = {
        k: smith_normal_form(complex_rep.boundary_matrix(k))
        for k in sorted({j for k in degrees for j in (k, k + 1) if 1 <= j <= top})
    }
    return {
        k: HomologyGroup(
            complex_rep.dim(k) - len(snf.get(k, ())) - len(snf.get(k + 1, ())),
            tuple(d for d in snf.get(k + 1, ()) if d > 1),
        )
        for k in degrees
    }


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
