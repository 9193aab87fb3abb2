"""Group homology of finite permutation groups via the bar resolution.

The (normalized) bar complex of a finite group G has (|G|-1)^k generators in
degree k, tuples of non-identity elements; the usual alternating face sum is
the differential, with faces that merge to the identity dropped.
``group_homology``, ``sym_homology`` and ``nakaoka_table`` never build it:
Brown's collapsing scheme (Brown 1992, "The geometry of rewriting systems")
matches its cells through shortlex normal forms in a generating set, and
``morse.morse_complex`` reduces it to the critical cells, Anick's chains:
S_5 keeps 1, 4, 13, 45 cells in degrees 0..3, where the bar complex has
1, 119, 14161, 1685159.  Every group, S_n included, goes through one road:
a ``PermutationGroup`` given by its ``generators`` (for S_n the Coxeter
generators in reverse, s_{n-1}, ..., s_1), whose one breadth-first search
lists the elements and their normal forms, and ``collapsed_bar_complex``.
No group keeps a multiplication table: products are composed on demand.
``max_generators`` caps the critical cells per degree, and every degree's
count is checked before any cell is built.  ``build_bar_complex`` and
``bar_boundary`` stay as the test oracle.  Either complex is a
ChainComplexRep without bases, so its integral homology comes out of
homology_table like that of any word complex.  The abelianization is computed independently, by enumerating the
commutator subgroup in O(|G|^2) compositions, and serves only as a
cross-check on degree-one homology.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys

from .alphabet import Value
from .complexes import ChainComplexRep
from .errors import InvalidInput, ResourceLimit
from .homology import HomologyGroup, homology_table
from .linalg import SparseIntMatrix, smith_normal_form
from .morse import COLLAPSIBLE, CRITICAL, REDUNDANT, morse_complex

DEFAULT_MAX_GENERATORS = 20_000
MAX_GROUP_ORDER = 5040


def _check_order(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise ResourceLimit("group order beyond the desk-scale cap", order=order)


def _check_budget(max_generators: int) -> None:
    if max_generators < 1:
        raise InvalidInput(
            "the generator budget must be at least 1", max_generators=max_generators
        )


def _check_generators(order: int, k: int, normalized: bool, max_generators: int) -> int:
    """The bar width, once degrees 0..k (at most width**k generators) fit the cap.

    An over-cap count is reported by its degree; it is not even formed when
    (width.bit_length() - 1) * k, a lower bound on its log2, exceeds the cap's.
    A cap below 1 is invalid input.
    """
    _check_budget(max_generators)
    width = order - 1 if normalized else order
    past_cap = (width.bit_length() - 1) * k > max_generators.bit_length()
    if past_cap or max(1, width**k) > max_generators:
        raise ResourceLimit(
            "bar complex generator count over the cap", degree=k, limit=max_generators
        )
    return width


class PermutationGroup:
    """Finite group of permutations, given by its generators.

    A permutation of 0..degree-1 is the tuple of its images; composition is
    (s*t)(i) = s(t(i)).  One breadth-first search from the identity, in
    generator order, lists the group: ``elements[i]`` is the i-th element
    met (the identity is 0) and ``words[i]`` its shortlex-least word in the
    generators, the normal form the collapsing scheme reads; ``index`` maps
    an element to its position.  Closure holds by construction, and the
    search costs O(|G|·|generators|) compositions.  A generator that is not
    a permutation, is the identity or repeats an earlier one is invalid
    input, and a search that would list more than MAX_GROUP_ORDER elements
    raises ResourceLimit.  There is no multiplication table: ``mult``
    composes on demand.
    """

    __slots__ = ("degree", "generators", "elements", "words", "index", "name")

    def __init__(self, degree: int, generators, name: str = "group"):
        if type(degree) is not int or degree < 0:
            raise InvalidInput("the degree must be an integer >= 0", degree=degree)
        identity = tuple(range(degree))
        points = list(identity)
        kept: list = []
        for g in map(tuple, generators):
            if not all(type(i) is int for i in g) or sorted(g) != points:
                raise InvalidInput("not a permutation of 0..degree-1", generator=g)
            if g == identity or g in kept:
                raise InvalidInput("a generator is the identity or repeats another", generator=g)
            kept.append(g)
        elements, words = [identity], [()]
        index = {identity: 0}
        # x * g is the tuple of x's entries at g's images; a generator moves
        # at least two points, so its itemgetter returns a tuple.
        compose = [operator.itemgetter(*g) for g in kept]
        for x, word in zip(elements, words):
            for s, times_g in enumerate(compose):
                y = times_g(x)
                if y not in index:
                    if len(elements) == MAX_GROUP_ORDER:
                        raise ResourceLimit(
                            "group order beyond the desk-scale cap", limit=MAX_GROUP_ORDER
                        )
                    index[y] = len(elements)
                    elements.append(y)
                    words.append(word + (s,))
        self.degree = degree
        self.generators = tuple(kept)
        self.elements = tuple(elements)
        self.words = tuple(words)
        self.index = index
        self.name = name

    @staticmethod
    def symmetric(n: int) -> "PermutationGroup":
        """S_n on its adjacent swaps s_{n-1}, ..., s_1, s_i exchanging i-1 and i."""
        if type(n) is not int or n < 1:
            raise InvalidInput("need n >= 1", n=n)
        # The cap is checked before the search: S_11 alone has 39.9 million
        # elements.  Past 20 letters only n is reported, since n! soon has too
        # many digits to print and to compute.
        if n > 20:
            raise ResourceLimit("group order beyond the desk-scale cap", n=n)
        _check_order(math.factorial(n))
        swaps = []
        for i in range(n - 1, 0, -1):
            s = list(range(n))
            s[i - 1], s[i] = i, i - 1
            swaps.append(s)
        return PermutationGroup(n, swaps, name=f"S_{n}")

    @staticmethod
    def cyclic(k: int) -> "PermutationGroup":
        """C_k on its one rotation i -> i+1 mod k."""
        if type(k) is not int or k < 1:
            raise InvalidInput("need k >= 1", k=k)
        _check_order(k)
        rotation = [(i + 1) % k for i in range(k)]
        return PermutationGroup(k, [rotation] if k > 1 else [], name=f"C_{k}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        """The index of elements[i] * elements[j]."""
        s, t = self.elements[i], self.elements[j]
        return self.index[tuple(s[k] for k in t)]

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
    _check_generators(group.order, k, normalized, max_generators)
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

    mult = group.mult
    for col, gens in enumerate(upper):
        add(gens[1:], col, 1)
        sign = -1
        for i in range(k - 1):
            merged = gens[:i] + (mult(gens[i], gens[i + 1]),) + gens[i + 2 :]
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
    width = _check_generators(group.order, max_degree, normalized, max_generators)
    return ChainComplexRep(
        dims=tuple(width**k for k in range(max_degree + 1)),
        boundaries=tuple(
            bar_boundary(group, k, normalized, max_generators)
            for k in range(1, max_degree + 1)
        ),
        complete=False,
        description={"complex": "bar", "group": group.name, "normalized": normalized},
    )


class _CollapsingScheme:
    """Brown's collapsing scheme on the normalized bar complex of a permutation group.

    The generators, the elements in shortlex order and their normal forms
    are the group's own (``generators``, ``elements``, ``words``).  Cells
    are bar cells [x_1|…|x_k], tuples of non-identity element indices in
    that order.  Let j be the length of the longest essential prefix: x_1
    is one generator, and each nf(x_{i-1})·nf(x_i) is reducible while
    nf(x_{i-1})·u is normal for every proper prefix u of nf(x_i).  Then the cell is

      - critical when j = k;
      - redundant when j = 0, with partner [s|x_1'|x_2|…], where nf(x_1) = s·nf(x_1');
      - collapsible when nf(x_j)·nf(x_{j+1}) is normal;
      - otherwise redundant, with x_{j+1} split at the shortest prefix u
        of its normal form that makes nf(x_j)·u reducible.

    The critical cells are Anick's chains (Brown 1992; Sköldberg 2006;
    Jöllenbeck–Welker 2009).  Products for boundary faces come from the
    group's ``mult`` and are memoised per pair; no multiplication table is
    built.
    """

    def __init__(self, group: PermutationGroup):
        self.rank = len(group.generators)
        self.words = group.words
        self.normal = {w: i for i, w in enumerate(self.words)}
        self.mult = group.mult
        self.name = group.name
        self._products: dict = {}
        self._cuts: dict = {}
        self._successors: dict = {}

    def product(self, x: int, y: int) -> int:
        z = self._products.get((x, y))
        if z is None:
            z = self._products[x, y] = self.mult(x, y)
        return z

    def boundary(self, cell) -> dict:
        """The normalized bar boundary [x_2|…] + Σ (−1)^i […|x_i·x_{i+1}|…]
        + (−1)^k [x_1|…|x_{k−1}]; faces that merge to the identity drop out."""
        k = len(cell)
        terms: dict = {}
        sign = 1
        for i in range(k + 1):
            if i == 0:
                face = cell[1:]
            elif i == k:
                face = cell[:-1]
            else:
                z = self.product(cell[i - 1], cell[i])
                face = cell[: i - 1] + (z,) + cell[i + 1 :] if z else None
            if face is not None:
                c = terms.get(face, 0) + sign
                if c:
                    terms[face] = c
                else:
                    del terms[face]
            sign = -sign
        return terms

    def _cut(self, x: int, y: int) -> int:
        """Length of the shortest prefix u of nf(y) with nf(x)·u reducible,
        or 0 when nf(x)·nf(y) is normal."""
        cut = self._cuts.get((x, y))
        if cut is None:
            left, right = self.words[x], self.words[y]
            reducible = (i for i in range(1, len(right) + 1) if left + right[:i] not in self.normal)
            cut = self._cuts[x, y] = next(reducible, 0)
        return cut

    def classify(self, cell):
        """The collapsing scheme's class of a cell, as ``morse_complex`` reads it."""
        if not cell:
            return CRITICAL, None
        words, normal = self.words, self.normal
        first = words[cell[0]]
        if len(first) > 1:
            return REDUNDANT, (normal[first[:1]], normal[first[1:]]) + cell[1:]
        for j in range(1, len(cell)):
            cut = self._cut(cell[j - 1], cell[j])
            right = words[cell[j]]
            if not cut:
                return COLLAPSIBLE, None
            if cut < len(right):
                split = (normal[right[:cut]], normal[right[cut:]])
                return REDUNDANT, cell[:j] + split + cell[j + 1 :]
        return CRITICAL, None

    def successors(self, x: int) -> list:
        """The y that make [x|y] essential, in index order.

        nf(y) extends letter by letter while nf(x)·nf(y) stays normal; the
        first letter that makes it reducible closes one successor.
        """
        found = self._successors.get(x)
        if found is None:
            left, normal = self.words[x], self.normal
            found, stack = [], [()]
            while stack:
                u = stack.pop()
                for s in range(self.rank):
                    v = u + (s,)
                    y = normal.get(v)
                    if y is None:  # v is not normal, so neither is any word through it
                        continue
                    if left + v in normal:
                        stack.append(v)
                    else:
                        found.append(y)
            found = self._successors[x] = sorted(found)
        return found

    def critical_cells(self, top: int, max_generators: int) -> list[list[tuple]]:
        """The critical cells of degrees 0..top, each degree in lexicographic order.

        Degree k+1 extends each critical cell of degree k by the successors
        of its last entry, so how many cells end in each element gives every
        degree's count before any cell is built.  A count over the budget (or
        over what a list can hold) raises ResourceLimit with its degree.
        """
        _check_budget(max_generators)
        limit = min(max_generators, sys.maxsize)
        letters = [self.normal[(s,)] for s in range(self.rank)]
        ends = dict.fromkeys(letters, 1)  # last entry -> cells of degree k ending in it
        for k in range(1, top + 1):
            if sum(ends.values()) > limit:
                raise ResourceLimit("critical cell count over the cap", degree=k, limit=limit)
            if k == top:
                break
            grown: dict = {}
            for x, count in ends.items():
                for y in self.successors(x):
                    grown[y] = grown.get(y, 0) + count
            ends = grown
        levels = [[()], [(x,) for x in letters]][: top + 1]
        while len(levels) <= top:
            levels.append([cell + (y,) for cell in levels[-1] for y in self.successors(cell[-1])])
        return levels

    def complex(self, top: int, max_generators: int) -> ChainComplexRep:
        """The Morse complex through degree top, truncated there."""
        if top < 0:
            raise InvalidInput("need max_degree >= 0", max_degree=top)
        return morse_complex(
            self.critical_cells(top, max_generators),
            self.classify,
            self.boundary,
            complete=False,
            description={"complex": "bar-morse", "group": self.name},
        )


def collapsed_bar_complex(
    group: PermutationGroup,
    max_degree: int,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> ChainComplexRep:
    """The bar complex reduced by Brown's collapsing scheme, truncated at max_degree.

    The one road from a group to its Morse complex, S_n included.  Normal
    forms are shortlex words in the group's ``generators``, taken from the
    search that listed the group, and max_generators caps the critical
    cells of each degree.
    """
    return _CollapsingScheme(group).complex(max_degree, max_generators)


def group_homology(
    group: PermutationGroup,
    m: int,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> HomologyGroup:
    """H_m of the group with integer coefficients, from the collapsing scheme."""
    if m < 0:
        raise InvalidInput("need m >= 0", m=m)
    return homology_table(collapsed_bar_complex(group, m + 1, max_generators), [m])[m]


def sym_homology(
    n: int,
    m: int,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> HomologyGroup:
    """H_m of the symmetric group on n letters: ``group_homology`` of S_n."""
    if m < 0:
        raise InvalidInput("need m >= 0", m=m)
    return group_homology(PermutationGroup.symmetric(n), m, max_generators)


def abelianization(group: PermutationGroup) -> HomologyGroup:
    """The quotient by the commutator subgroup, in invariant-factor form.

    Computed by direct enumeration, as a cross-check on degree-one homology:
    close the set of commutators under multiplication, split the group into
    cosets, and read off the invariant factors of the quotient from the Smith
    normal form of its relations.  It makes O(|G|^2) compositions through
    ``mult``, where the collapsing scheme makes O(|G|·|generators|).
    """
    mult = group.mult
    order = group.order
    # The inverse of e sends each point to its position in e.
    inverse = [group.index[tuple(map(e.index, range(group.degree)))] for e in group.elements]
    commutators = {
        mult(mult(a, b), mult(inverse[a], inverse[b]))
        for a in range(order)
        for b in range(order)
    }
    subgroup = {0} | commutators
    frontier = list(subgroup)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(subgroup):
                for c in (mult(a, b), mult(b, a)):
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
        members = sorted(mult(g, h) for h in subgroup)
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
            k = coset_of[mult(reps[i], reps[j])]
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


class NakaokaReport(Value):
    """H_m of S_{n-1} (lhs) against S_n (rhs); in_range (m < n/2) claims they are equal."""

    __slots__ = ("n", "m", "lhs", "rhs", "in_range", "equal")

    def __init__(self, n, m, lhs, rhs, in_range, equal):
        super().__init__(n, m, lhs, rhs, in_range, equal)

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
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> list[NakaokaReport]:
    """Compare H_m(S_{n-1}) with H_m(S_n) for m = 0..max_degree.

    Row m reports degree m and whether m < n/2; each group's Morse complex
    (``collapsed_bar_complex``) is built once and shared by all degrees.
    """
    if n < 2:
        raise InvalidInput("need n >= 2 to compare consecutive groups", n=n)
    if max_degree < 0:
        raise InvalidInput("need max_degree >= 0", max_degree=max_degree)
    # S_n has the more critical cells, so its budget is checked first, before
    # anything is reduced.
    large, small = (
        collapsed_bar_complex(PermutationGroup.symmetric(k), max_degree + 1, max_generators)
        for k in (n, n - 1)
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
