"""The based chain complex type, and the builders of word complexes.

``ChainComplexRep`` is the one complex type: ranks, sparse integer boundary
matrices and, for word complexes, the bases; ``grouphom.build_bar_complex``
returns one without bases.  Constructing one checks d_k d_{k+1} = 0.

Three word complexes are built: injective words on m letters (complete), all
words on m letters truncated at a chosen degree, and the words in general
position to a base word.  Each is a prefix-closed set of words, the last by
the weakening axiom (ii), so one enumerator builds all three: it extends
every word of degree k by each symbol in canonical order and keeps what the
builder's rule admits.  Bases therefore come out in lexicographic order, and
column j of each boundary matrix is the boundary of basis word j expressed
in the lower basis.  The basis budget counts every word kept, in every
degree, and is checked at each one.
"""

from __future__ import annotations

from itertools import combinations

from .alphabet import Alphabet, Value, Word
from .chains import word_boundary
from .errors import InternalInvariantBroken, InvalidInput, ResourceLimit
from .genpos import GeneralPositionRelation
from .linalg import SparseIntMatrix

DEFAULT_MAX_BASIS = 500_000


class ChainComplexRep(Value):
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

    __slots__ = ("dims", "boundaries", "complete", "alphabet", "bases", "description")

    def __init__(self, dims, boundaries, complete, alphabet=None, bases=None, description=None):
        super().__init__(dims, boundaries, complete, alphabet, bases, description)
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
                for face, c in word_boundary(word).items():
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


def _boundary_matrix(lower: tuple, upper: tuple) -> SparseIntMatrix:
    index = {w: i for i, w in enumerate(lower)}
    entries: dict[tuple, int] = {}
    for j, word in enumerate(upper):
        # The face rule of chains.add_boundary: the last entry is deleted
        # first, with sign (-1)^(n-1).
        n = len(word)
        sign = 1 if n % 2 else -1
        for face in combinations(word, n - 1):
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


def _enumerate(symbols, admits, max_degree, max_basis) -> tuple[list, bool]:
    """Levels 0..max_degree of a prefix-closed word set, and whether it is complete.

    Level k+1 is every ``word + (s,)`` with word in level k, s in ``symbols``
    order and ``admits(word, s)``.  With max_degree None levels are built until
    one is empty, and the set is complete.  Every word kept counts against
    the budget, which is checked at each word.
    """
    limit = DEFAULT_MAX_BASIS if max_basis is None else max_basis
    if limit < 1:
        raise InvalidInput("the basis budget must be at least 1", max_basis=limit)
    if max_degree is not None and max_degree < 0:
        raise InvalidInput("truncation degree must be nonnegative", max_degree=max_degree)
    levels = [[()]]
    total = 1
    while max_degree is None or len(levels) <= max_degree:
        level = []
        for word in levels[-1]:
            for s in symbols:
                if admits(word, s):
                    total += 1
                    if total > limit:
                        raise ResourceLimit(
                            "the word complex exceeds the basis budget",
                            degree=len(levels),
                            limit=limit,
                        )
                    level.append(word + (s,))
        if not level:
            return levels, True
        levels.append(level)
    return levels, False


def _assemble(alphabet, levels, complete, description) -> ChainComplexRep:
    bases = tuple(tuple(level) for level in levels)
    return ChainComplexRep(
        dims=tuple(len(level) for level in bases),
        boundaries=tuple(
            _boundary_matrix(bases[k - 1], bases[k]) for k in range(1, len(bases))
        ),
        complete=complete,
        alphabet=alphabet,
        bases=bases,
        description=description,
    )


def build_injective(m: int) -> ChainComplexRep:
    """Complete complex of injective words on the letters 1..m."""
    if type(m) is not int or not 1 <= m <= 8:
        raise InvalidInput("injective-word complex supported for 1 <= m <= 8", m=m)
    alphabet = Alphabet.letters(m)
    levels, complete = _enumerate(alphabet.symbols(), lambda word, s: s not in word, None, None)
    return _assemble(alphabet, levels, complete, description={"complex": "injective", "m": m})


def build_full(m: int, max_degree: int, max_basis: int | None = None) -> ChainComplexRep:
    """Full word complex on m letters, truncated at max_degree."""
    alphabet = Alphabet.letters(m)
    levels, _ = _enumerate(alphabet.symbols(), lambda word, s: True, max_degree, max_basis)
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

    By weakening (axiom ii) every prefix of a word in general position to
    the base is in general position to it, so the complex is the prefix-closed
    set that the one enumerator builds, with the rule gp(word + (s,); base)
    from ``relation.extension_rule``.  An abstract relation asks gp about the
    whole word; the injective relation tests s against the word and the
    base, and the vector relation tests one bit of the word's forbidden
    mask, which it grows by the spans of each added point (the exchange
    lemma; see ``VectorRelation``), so a vector build makes no gp call.
    In auto mode (max_degree None) levels are built until one is empty, which
    is how intrinsically bounded relations terminate; unbounded growth runs
    into the basis budget instead.  The base must itself be in general
    position, gp(base; ()), or PreconditionViolated is raised.
    """
    alphabet = relation.alphabet
    base = relation.check_base(base)
    levels, complete = _enumerate(
        alphabet.symbols(), relation.extension_rule(base), max_degree, max_basis
    )
    descr = {
        "complex": "general-position",
        "relation": relation.describe(),
        "base": alphabet.word_to_json(base),
        "max_degree": max_degree,
    }
    return _assemble(alphabet, levels, complete=complete, description=descr)
