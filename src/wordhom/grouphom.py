"""Group homology of finite permutation groups via the bar resolution.

The (normalized) bar complex of a finite group G has (|G|-1)^k generators in
degree k, tuples of non-identity elements; the usual alternating face sum is
the differential, with faces that merge to the identity dropped.  The bar
complex is a ChainComplexRep without bases, so its integral homology comes
out of homology_table like that of any word complex.  The
abelianization is computed independently, by enumerating the commutator
subgroup, and serves as a cross-check on degree-one homology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import ChainComplexRep
from .errors import InvalidInput, ResourceLimit
from .homology import HomologyGroup, homology_table
from .linalg import SparseIntMatrix, smith_normal_form

DEFAULT_MAX_GENERATORS = 20_000
MAX_GROUP_ORDER = 5040


class PermutationGroup:
    """Finite group of permutations with a precomputed multiplication table.

    Elements are tuples mapping 0..degree-1 to images; composition is
    (s*t)(i) = s(t(i)).  The identity is element 0 and the remaining elements
    are sorted.  Closure, identity and inverses are verified on construction.
    """

    __slots__ = ("degree", "elements", "index", "table", "inverse", "name")

    def __init__(self, elements, name: str = "group"):
        elements = {tuple(e) for e in elements}
        if not elements:
            raise InvalidInput("a group needs at least the identity")
        degree = len(next(iter(elements)))
        identity = tuple(range(degree))
        if identity not in elements:
            raise InvalidInput("the identity permutation is missing")
        if len(elements) > MAX_GROUP_ORDER:
            raise ResourceLimit("group order beyond the desk-scale cap", order=len(elements))
        ordered = [identity] + sorted(elements - {identity})
        for e in ordered:
            if sorted(e) != list(range(degree)):
                raise InvalidInput("not a permutation", element=e)
        index = {e: i for i, e in enumerate(ordered)}
        table = []
        for s in ordered:
            row = []
            for t in ordered:
                product = tuple(s[t[i]] for i in range(degree))
                k = index.get(product)
                if k is None:
                    raise InvalidInput("the element set is not closed under composition")
                row.append(k)
            table.append(tuple(row))
        inverse = [None] * len(ordered)
        for i, row in enumerate(table):
            for j, k in enumerate(row):
                if k == 0:
                    inverse[i] = j
        if any(v is None for v in inverse):
            raise InvalidInput("some element has no inverse")
        self.degree = degree
        self.elements = tuple(ordered)
        self.index = index
        self.table = tuple(table)
        self.inverse = tuple(inverse)
        self.name = name

    @staticmethod
    def symmetric(n: int) -> "PermutationGroup":
        if not isinstance(n, int) or n < 1:
            raise InvalidInput("need n >= 1", n=n)
        return PermutationGroup(itertools.permutations(range(n)), name=f"S_{n}")

    @staticmethod
    def cyclic(k: int) -> "PermutationGroup":
        if not isinstance(k, int) or k < 1:
            raise InvalidInput("need k >= 1", k=k)
        rotation = tuple((i + 1) % k for i in range(k))
        elements = []
        current = tuple(range(k))
        for _ in range(k):
            elements.append(current)
            current = tuple(rotation[i] for i in current)
        return PermutationGroup(elements, name=f"C_{k}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def __repr__(self):
        return f"PermutationGroup({self.name}, order={self.order})"


def _bar_generators(group: PermutationGroup, k: int, normalized: bool):
    alphabet = range(1, group.order) if normalized else range(group.order)
    return list(itertools.product(alphabet, repeat=k))


def bar_boundary(
    group: PermutationGroup,
    k: int,
    normalized: bool = True,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> SparseIntMatrix:
    """Bar differential from degree k to degree k-1 with integer coefficients."""
    if k < 1:
        raise InvalidInput("the bar differential starts at degree 1", k=k)
    width = (group.order - 1) if normalized else group.order
    if width**k > max_generators or width ** (k - 1) > max_generators:
        raise ResourceLimit(
            "bar complex generator count over the cap",
            generators=width**k,
            limit=max_generators,
        )
    lower = _bar_generators(group, k - 1, normalized)
    upper = _bar_generators(group, k, normalized)
    row_index = {g: i for i, g in enumerate(lower)}
    entries: dict[tuple, int] = {}

    def add(face, col, sign):
        if normalized and 0 in face:
            return
        key = (row_index[face], col)
        val = entries.get(key, 0) + sign
        if val:
            entries[key] = val
        else:
            del entries[key]

    mult = group.table
    for col, gens in enumerate(upper):
        add(gens[1:], col, 1)
        sign = -1
        for i in range(k - 1):
            merged = gens[:i] + (mult[gens[i]][gens[i + 1]],) + gens[i + 2 :]
            add(merged, col, sign)
            sign = -sign
        add(gens[:-1], col, sign)
    return SparseIntMatrix(len(lower), len(upper), entries)


def build_bar_complex(
    group: PermutationGroup,
    max_degree: int,
    normalized: bool = True,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> ChainComplexRep:
    """Bar complex of the group through max_degree, truncated there."""
    if max_degree < 0:
        raise InvalidInput("need max_degree >= 0", max_degree=max_degree)
    width = (group.order - 1) if normalized else group.order
    return ChainComplexRep(
        dims=tuple(width**k for k in range(max_degree + 1)),
        boundaries=tuple(
            bar_boundary(group, k, normalized, max_generators)
            for k in range(1, max_degree + 1)
        ),
        complete=False,
        description={"complex": "bar", "group": group.name, "normalized": normalized},
    )


def group_homology(
    group: PermutationGroup,
    m: int,
    normalized: bool = True,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> HomologyGroup:
    """H_m of the group with integer coefficients, from the bar complex."""
    if m < 0:
        raise InvalidInput("need m >= 0", m=m)
    bar = build_bar_complex(group, m + 1, normalized, max_generators)
    return homology_table(bar, [m])[m]


def sym_homology(
    n: int,
    m: int,
    normalized: bool = True,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> HomologyGroup:
    """H_m of the symmetric group on n letters."""
    return group_homology(PermutationGroup.symmetric(n), m, normalized, max_generators)


def abelianization(group: PermutationGroup) -> HomologyGroup:
    """The quotient by the commutator subgroup, in invariant-factor form.

    Computed by direct enumeration: close the set of commutators under
    multiplication, form the coset multiplication table, and read off the
    invariant factors of the resulting abelian group from the Smith normal
    form of its table of relations.
    """
    table = group.table
    inverse = group.inverse
    order = group.order
    commutators = {
        table[table[a][b]][table[inverse[a]][inverse[b]]]
        for a in range(order)
        for b in range(order)
    }
    subgroup = {0} | commutators
    frontier = list(subgroup)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(subgroup):
                for c in (table[a][b], table[b][a]):
                    if c not in subgroup:
                        subgroup.add(c)
                        fresh.append(c)
        frontier = fresh

    # Cosets of the commutator subgroup, represented by their least element.
    coset_of = {}
    reps = []
    for g in range(order):
        if g in coset_of:
            continue
        members = sorted(table[g][h] for h in subgroup)
        rep = len(reps)
        reps.append(members[0])
        for x in members:
            coset_of[x] = rep
    t = len(reps)

    # Relations x_i + x_j - x_{ij} = 0 plus x_identity = 0 present the
    # quotient; its invariant factors are those of the relation matrix.
    entries: dict[tuple, int] = {}
    col = 0
    for i in range(t):
        for j in range(t):
            k = coset_of[table[reps[i]][reps[j]]]
            for row, delta in ((i, 1), (j, 1), (k, -1)):
                key = (row, col)
                val = entries.get(key, 0) + delta
                if val:
                    entries[key] = val
                else:
                    del entries[key]
            col += 1
    entries[(coset_of[0], col)] = 1
    col += 1
    factors = smith_normal_form(SparseIntMatrix(t, col, entries))
    torsion = tuple(d for d in factors if d > 1)
    free = t - len(factors)
    return HomologyGroup(free, torsion)


@dataclass(frozen=True)
class NakaokaReport:
    """Comparison of H_m across consecutive symmetric groups."""

    n: int
    m: int
    lhs: HomologyGroup  # H_m of S_{n-1}
    rhs: HomologyGroup  # H_m of S_n
    in_range: bool  # m < n/2, where equality of the two groups is claimed
    equal: bool

    def holds(self) -> bool:
        """The stability claim is vacuous outside the range."""
        return self.equal or not self.in_range

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "in_range": self.in_range,
            "equal": self.equal,
        }


def nakaoka_table(
    n: int,
    max_degree: int,
    normalized: bool = True,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> list[NakaokaReport]:
    """Compare H_m(S_{n-1}) with H_m(S_n) for m = 0..max_degree.

    Row m reports degree m and whether m < n/2; both bar complexes are built
    once and shared by all degrees.
    """
    if n < 2:
        raise InvalidInput("need n >= 2 to compare consecutive groups", n=n)
    if max_degree < 0:
        raise InvalidInput("need max_degree >= 0", max_degree=max_degree)
    small = build_bar_complex(
        PermutationGroup.symmetric(n - 1), max_degree + 1, normalized, max_generators
    )
    large = build_bar_complex(
        PermutationGroup.symmetric(n), max_degree + 1, normalized, max_generators
    )
    degrees = range(max_degree + 1)
    lhs = homology_table(small, degrees)
    rhs = homology_table(large, degrees)
    return [
        NakaokaReport(
            n=n,
            m=m,
            lhs=lhs[m],
            rhs=rhs[m],
            in_range=2 * m < n,
            equal=lhs[m] == rhs[m],
        )
        for m in degrees
    ]
