"""The based chain complex type, and the builders of word complexes.

``ChainComplexRep`` is the one complex type: ranks, sparse integer boundary
matrices and, for word complexes, the bases; ``grouphom.build_bar_complex``
returns one without bases.  Constructing one checks d_k d_{k+1} = 0.

Three word-complex builders are provided: the complex of injective words on
m letters (complete), the full word complex truncated at a chosen degree, and
the subcomplex of words in general position to a base word.  Bases are stored
in canonical (lexicographic) order, and column j of each boundary matrix is
the boundary of basis word j expressed in the lower basis.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .alphabet import Alphabet, Word
from .chains import Chain
from .errors import InternalInvariantBroken, InvalidInput, ResourceLimit
from .genpos import GeneralPositionRelation
from .linalg import SparseIntMatrix

DEFAULT_MAX_BASIS = 500_000
MAX_BASIS_ENV = "WORDHOM_MAX_BASIS"


def max_basis_limit(override: int | None = None) -> int:
    """Total basis-word budget; the environment variable wins over the default."""
    if override is not None:
        return override
    raw = os.environ.get(MAX_BASIS_ENV)
    if raw is None:
        return DEFAULT_MAX_BASIS
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInput(f"{MAX_BASIS_ENV} must be an integer", value=raw) from exc


@dataclass(frozen=True)
class ChainComplexRep:
    """Based chain complex with explicit sparse integer boundary matrices.

    ``dims[k]`` is the rank of the degree-k chain group and ``boundaries[k-1]``
    maps degree k to degree k-1.  ``complete`` means every degree of the
    complex is materialized (all higher chain groups are zero); otherwise the
    complex is truncated at top_degree and homology is only reliable strictly
    below it.  Word complexes also carry their alphabet and bases, and column
    j of ``boundaries[k-1]`` is the boundary of ``bases[k][j]``; bar complexes
    leave ``bases`` None and never list their generators.  Construction
    checks d_k d_{k+1} = 0.
    """

    dims: tuple[int, ...]
    boundaries: tuple[SparseIntMatrix, ...]
    complete: bool
    alphabet: Alphabet | None = None
    bases: tuple[tuple[Word, ...], ...] | None = None
    description: dict | None = None

    def __post_init__(self):
        self._check_square_zero()

    def _check_square_zero(self):
        for k in range(1, len(self.boundaries)):
            if not self.boundaries[k - 1].mul(self.boundaries[k]).is_zero():
                raise InternalInvariantBroken("d^2 is nonzero", degree=k + 1)

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k <= self.top_degree else 0

    def basis(self, k: int) -> tuple[Word, ...]:
        if self.bases is None or not 0 <= k <= self.top_degree:
            raise InvalidInput("no basis listed at this degree", degree=k)
        return self.bases[k]

    def boundary_matrix(self, k: int) -> SparseIntMatrix:
        if not 1 <= k <= self.top_degree:
            raise InvalidInput("no boundary matrix at this degree", degree=k)
        return self.boundaries[k - 1]

    def verify(self):
        """Recheck d_k d_{k+1} = 0 and, given bases, each matrix column."""
        self._check_square_zero()
        if self.bases is None:
            return
        for k in range(1, self.top_degree + 1):
            index = {w: i for i, w in enumerate(self.bases[k - 1])}
            expected = {}
            for j, word in enumerate(self.bases[k]):
                for face, c in Chain.term(self.alphabet, word).boundary().terms():
                    expected[index.get(face), j] = c
            differ = expected.items() ^ self.boundaries[k - 1].items()
            if differ:
                raise InternalInvariantBroken(
                    "matrix column disagrees with the boundary operator",
                    degree=k,
                    column=min(j for (_, j), _ in differ),
                )

    def to_json(self) -> dict:
        out = {
            "complete": self.complete,
            "description": self.description or {},
            "dims": list(self.dims),
            "boundaries": [
                {
                    "degree": k,
                    "rows": m.rows,
                    "cols": m.cols,
                    "entries": m.to_coordinates(),
                }
                for k, m in enumerate(self.boundaries, start=1)
            ],
        }
        if self.bases is not None:
            out["alphabet"] = self.alphabet.to_json()
            out["bases"] = [
                [self.alphabet.word_to_json(w) for w in level] for level in self.bases
            ]
        return out


def _boundary_matrix(alphabet: Alphabet, lower: tuple, upper: tuple) -> SparseIntMatrix:
    index = {w: i for i, w in enumerate(lower)}
    entries: dict[tuple, int] = {}
    for j, word in enumerate(upper):
        sign = 1
        for pos in range(len(word)):
            face = word[:pos] + word[pos + 1 :]
            row = index.get(face)
            if row is None:
                raise InternalInvariantBroken(
                    "a face of a basis word is missing from the lower basis",
                    word=word,
                    face=face,
                )
            key = (row, j)
            val = entries.get(key, 0) + sign
            if val:
                entries[key] = val
            else:
                del entries[key]
            sign = -sign
    return SparseIntMatrix(len(lower), len(upper), entries)


def _assemble(alphabet, levels, complete, description) -> ChainComplexRep:
    bases = tuple(tuple(level) for level in levels)
    return ChainComplexRep(
        dims=tuple(len(level) for level in bases),
        boundaries=tuple(
            _boundary_matrix(alphabet, bases[k - 1], bases[k]) for k in range(1, len(bases))
        ),
        complete=complete,
        alphabet=alphabet,
        bases=bases,
        description=description,
    )


def build_injective(m: int) -> ChainComplexRep:
    """Complete complex of injective words on the letters 1..m."""
    if not isinstance(m, int) or not 1 <= m <= 8:
        raise InvalidInput("injective-word complex supported for 1 <= m <= 8", m=m)
    letters = range(1, m + 1)
    levels = [
        [tuple(word) for word in itertools.permutations(letters, k)]
        for k in range(m + 1)
    ]
    return _assemble(
        Alphabet.letters(m),
        levels,
        complete=True,
        description={"complex": "injective", "m": m},
    )


def build_full(m: int, max_degree: int, max_basis: int | None = None) -> ChainComplexRep:
    """Full word complex on m letters, truncated at max_degree."""
    alphabet = Alphabet.letters(m)
    if max_degree < 0:
        raise InvalidInput("truncation degree must be nonnegative", max_degree=max_degree)
    limit = max_basis_limit(max_basis)
    total = sum(m**k for k in range(max_degree + 1))
    if total > limit:
        raise ResourceLimit(
            "the truncated word complex exceeds the basis budget",
            words=total,
            limit=limit,
        )
    letters = range(1, m + 1)
    levels = [
        [tuple(word) for word in itertools.product(letters, repeat=k)]
        for k in range(max_degree + 1)
    ]
    return _assemble(
        alphabet,
        levels,
        complete=False,
        description={"complex": "full", "m": m, "max_degree": max_degree},
    )


def build_gp(
    relation: GeneralPositionRelation,
    base=(),
    max_degree: int | None = None,
    max_basis: int | None = None,
) -> ChainComplexRep:
    """Subcomplex of words in general position to the base word.

    Words are enumerated depth first in canonical symbol order with prefix
    pruning: a word in general position to the base has every prefix in
    general position to it, so each level extends the previous one.  In auto
    mode (max_degree None) levels are built until one is empty, which is how
    intrinsically bounded relations terminate; unbounded growth runs into the
    basis budget instead.
    """
    alphabet = relation.alphabet
    base = alphabet.check_word(base)
    limit = max_basis_limit(max_basis)
    symbols = alphabet.symbols()

    levels: list[list[Word]] = [[()]]
    total = 1
    complete = False
    degree = 0
    while True:
        if max_degree is not None and degree >= max_degree:
            break
        previous = levels[-1]
        level = []
        for word in previous:
            for s in symbols:
                candidate = word + (s,)
                if relation.gp(candidate, base):
                    level.append(candidate)
        if not level:
            complete = True
            break
        total += len(level)
        if total > limit:
            raise ResourceLimit(
                "general-position complex exceeds the basis budget",
                degree=degree + 1,
                words=total,
                limit=limit,
            )
        levels.append(level)
        degree += 1

    descr = {
        "complex": "general-position",
        "relation": relation.describe(),
        "base": alphabet.word_to_json(base),
        "max_degree": max_degree,
    }
    return _assemble(alphabet, levels, complete=complete, description=descr)
