"""General position relations, their axioms, and the blocking-order search.

A general position relation is a family of predicates gp(x; y) on pairs of
words over one alphabet, subject to three axioms:

  (i)   invariance under permuting the x block and under permuting the y block;
  (ii)  gp(x.y; z) implies gp(x; y.z), and gp(x; y.z) implies gp(x; z);
  (iii) gp(x; y.z) and gp(y; z) together imply gp(x.y; z).

An empty x block satisfies gp vacuously.  The axioms are testable obligations,
exercised by randomized trials in ``check_axioms``, never assumed.

A relation's ``extension_rule(base)`` decides gp(word + (s,); base) for a word
already in general position to the base; ``build_gp`` and the axiom sampler
use it.  By default it asks gp about the whole word.  The injective relation
tests s against the word and the base.  The vector relation keeps each word's
forbidden mask, the points in the span of at most dim-1 points of word.base,
and tests one bit of it: by the exchange lemma nothing else can fail.

The order of a relation is the least length of a word that no alphabet
element is in general position to; ``gp_order`` searches for it exactly.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod

from .alphabet import Alphabet, Value, Word
from .errors import InternalInvariantBroken, InvalidInput, PreconditionViolated
from .linalg import require_prime


def gp_inj(x, y) -> bool:
    """Injective-word relation: entries of x pairwise distinct and disjoint from y."""
    sx = set(x)
    return len(sx) == len(x) and not sx & set(y)


class _SpanOracle:
    """Spans of projective points of F_p^dim, by row reduction and bitmask.

    A point is named by its index: 0 for the zero vector, and 1..size for
    the nonzero points in the sorted order of their canonical
    representatives (the vector with its first nonzero coordinate scaled to
    1).  ``index`` scales a vector to its point's index and ``point`` gives
    the representative back.  ``basis`` row-reduces a set of points, and a
    membership test reduces one point against that basis, so deciding gp
    costs O(k * dim) per set of k points and tested point, whatever p is.
    ``span_mask`` lists the points of a span from the same basis as an
    integer whose bit q is set iff point q lies in the span; that costs one
    step per point of the span, so the masks are cached, as are the points
    ``point`` has built.  The forbidden mask of a set of points is the OR of
    the span masks of its subsets of at most dim-1 points, bit 0 (the empty
    span) included: a point is in general position to the set iff its bit
    is clear.  ``extend`` grows it by one point, through the spans that
    contain the new point only.  Nothing is precomputed: F_13^6 has 4.8
    million vectors.
    """

    def __init__(self, p: int, dim: int):
        self.p = p
        self.dim = dim
        # offsets[j]: number of points whose leading coordinate lies after j
        self._offsets = [sum(p**e for e in range(dim - 1 - j)) for j in range(dim)]
        self.size = sum(p**e for e in range(dim))
        self._spans: dict[tuple, int] = {}
        self._points: dict[int, Word] = {}

    def index(self, v) -> int:
        """Index of the point of a vector of residues mod p (0 if zero)."""
        p = self.p
        for j, lead in enumerate(v):
            if lead:
                inv = pow(lead, p - 2, p)
                tail = 0
                for a in v[j + 1 :]:
                    tail = tail * p + a * inv % p
                return 1 + self._offsets[j] + tail
        return 0

    def point(self, q: int) -> Word:
        """Canonical representative of the nonzero point with index q, memoised."""
        v = self._points.get(q)
        if v is None:
            j = 0
            while q <= self._offsets[j]:
                j += 1
            tail = q - 1 - self._offsets[j]
            digits = [0] * self.dim
            digits[j] = 1
            for i in range(self.dim - 1, j, -1):
                tail, digits[i] = divmod(tail, self.p)
            v = self._points[q] = tuple(digits)
        return v

    def _reduce(self, basis, v):
        p = self.p
        for pivot, row in basis:
            c = v[pivot]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def basis(self, vectors) -> list:
        """Row echelon basis of the span of the given vectors, as (pivot, row)
        pairs sorted by pivot: each row is 1 at its pivot and 0 before it."""
        p = self.p
        basis: list = []
        for v in vectors:
            v = self._reduce(basis, v)
            lead = next((j for j, a in enumerate(v) if a), None)
            if lead is None:
                continue
            inv = pow(v[lead], p - 2, p)
            basis.append((lead, [a * inv % p for a in v]))
            basis.sort()
        return basis

    def span_mask(self, points: tuple) -> int:
        """Bitmask of the span of the points with the given sorted indices."""
        mask = self._spans.get(points)
        if mask is None:
            p = self.p
            rows = [row for _, row in self.basis([self.point(q) for q in points])]
            mask = 0
            # Each point of the span has exactly one canonical representative
            # row j + (a combination of the later rows): the later rows are 0
            # at and before pivot j.
            later = [(0,) * self.dim]
            for j in range(len(rows) - 1, -1, -1):
                row = rows[j]
                for w in later:
                    mask |= 1 << self.index([(a + b) % p for a, b in zip(row, w)])
                if j:
                    later = [
                        [(a + c * b) % p for a, b in zip(w, row)] for w in later for c in range(p)
                    ]
            self._spans[points] = mask
        return mask

    def in_position(self, xs, ys) -> bool:
        """gp on point indices: every x point is nonzero and outside the span
        of every set of at most dim-1 points at the other positions."""
        if 0 in xs:
            return False
        if self.dim == 1 or not xs:
            return True
        distinct = set(xs)
        # A single point spans only itself, so this settles every set of one
        # point, and with it dimension 2 and words of at most two points.
        if len(distinct) < len(xs) or not distinct.isdisjoint(ys):
            return False
        points = distinct.union(ys) - {0}
        if self.dim == 2 or len(points) < 3:
            return True
        # The row reduction needs vectors: one per distinct point.
        vectors = {q: self.point(q) for q in points}
        xv = {vectors[q] for q in distinct}
        for size in range(2, min(self.dim - 1, len(vectors) - 1) + 1):
            for subset in itertools.combinations(vectors.values(), size):
                outside = xv.difference(subset)
                if not outside:
                    continue
                basis = self.basis(subset)
                # A dependent set spans what a smaller one does, checked already.
                if len(basis) == size and any(not any(self._reduce(basis, v)) for v in outside):
                    return False
        return True

    def extend(self, mask: int, points, q: int) -> int:
        """Forbidden mask of the distinct nonzero points plus the nonzero
        point q, from the mask of the points: q adds the spans of q with at
        most dim-2 of them."""
        for size in range(min(self.dim - 2, len(points)) + 1):
            for subset in itertools.combinations(points, size):
                mask |= self.span_mask(tuple(sorted(subset + (q,))))
        return mask

    def forbidden(self, points) -> int:
        """Forbidden mask of the given points; zeros and repeats are dropped
        first, as they change no span."""
        points = sorted(set(points) - {0})
        mask = 1
        for size in range(1, min(self.dim - 1, len(points)) + 1):
            for subset in itertools.combinations(points, size):
                mask |= self.span_mask(subset)
        return mask

    def blocks(self, points) -> bool:
        """True when the forbidden mask of the points is every point, so no
        vector is in general position to them."""
        return self.forbidden(points) == (1 << (self.size + 1)) - 1


def gp_vec(x, y, p: int, dim: int | None = None) -> bool:
    """Vector relation over F_p.

    True iff there is no linear relation with at most dim nonzero
    coefficients, over the entries of x followed by those of y, in which some
    x coefficient is nonzero.  Equivalently: no entry of x lies in the span
    of at most dim-1 of the remaining entries (the empty span forces the
    entry itself to be nonzero).  Entries are reduced mod p first; p must be
    a prime int.
    """
    require_prime(p)
    entries = [tuple(v) for v in x] + [tuple(v) for v in y]
    if dim is None:
        if not entries:
            return True
        dim = len(entries[0])
    if any(len(v) != dim for v in entries):
        raise InvalidInput("vector entries have mismatched dimensions", dim=dim)
    oracle = _SpanOracle(p, dim)
    points = [oracle.index([a % p for a in v]) for v in entries]
    return oracle.in_position(points[: len(x)], points[len(x) :])


class GeneralPositionRelation(ABC):
    """Abstract predicate family together with its ground alphabet."""

    alphabet: Alphabet
    name: str = "abstract"
    # When True, whether a word blocks every further element depends only on
    # the set of its entries (up to the relation's own symmetries), so the
    # order search may enumerate canonical sets instead of all sequences.
    set_blocking: bool = False

    @abstractmethod
    def gp(self, x, y) -> bool:
        """Is the word x in general position to the word y?"""

    @abstractmethod
    def extension_candidates(self) -> list:
        """Finite universe of elements relevant to extending or blocking words."""

    def extension_rule(self, base):
        """The rule admits(word, s) == gp(word + (s,); base), for a word in
        general position to the base whose proper prefixes were all passed
        to the rule before it, as ``complexes._enumerate`` passes them.

        The word itself is empty when the rule decides gp((s,); base), which
        holds for any base.  This default asks gp about the whole word,
        because an abstract relation's axioms are never assumed; a subclass
        may decide the same predicate from the word's new symbol alone.
        """
        return lambda word, s: self.gp(word + (s,), base)

    def point_gp(self):
        """A predicate equal to gp on words of alphabet symbols that the
        caller has validated, for deciding many words over the same symbols.

        This default is gp itself; a subclass may decide the predicate on
        its own names for the symbols, validating each symbol once.
        """
        return self.gp

    def is_blocking(self, word) -> bool:
        """True when no candidate element is in general position to the word."""
        return not any(self.gp((e,), tuple(word)) for e in self.extension_candidates())

    def least_blocking(self, universe: list, n: int):
        """The lexicographically least blocking word of length n over the
        sorted universe, or None: over sets when ``set_blocking``, else over
        sequences, one ``is_blocking`` call each."""
        if self.set_blocking:
            words = itertools.combinations(universe, n)
        else:
            words = itertools.product(universe, repeat=n)
        return next((tuple(w) for w in words if self.is_blocking(w)), None)

    def check_base(self, base) -> Word:
        """The base word, validated; PreconditionViolated unless gp(base; ())."""
        base = self.alphabet.check_word(base)
        if not self.gp(base, ()):
            raise PreconditionViolated(
                "the base word is not in general position",
                base=self.alphabet.word_to_json(base),
            )
        return base

    def describe(self) -> dict:
        return {"name": self.name, "alphabet": self.alphabet.to_json()}


class InjectiveRelation(GeneralPositionRelation):
    """x in general position to y iff x is injective and disjoint from y."""

    set_blocking = True

    def __init__(self, m: int):
        self.alphabet = Alphabet.letters(m)
        self.name = "inj"

    def gp(self, x, y) -> bool:
        return gp_inj(x, y)

    def extension_rule(self, base):
        """An injective word disjoint from the base stays so iff s is new."""
        taken = set(base)
        return lambda word, s: s not in word and s not in taken

    def extension_candidates(self) -> list:
        return self.alphabet.symbols()


class VectorRelation(GeneralPositionRelation):
    """Vectors over F_p^dim in general position, decided on projective points.

    The relation only depends on entries up to nonzero scaling, so inside it
    a symbol is the index of its projective point.  A symbol is validated
    against the alphabet on its first lookup and its index is memoised.
    gp(x; y) holds iff the x points are nonzero, pairwise distinct and absent
    from y (which settles spans of one point, and all of dimension 2), and no
    x point reduces to zero against the row echelon basis of a set of
    2..dim-1 points at the other positions.  A word blocks iff its
    forbidden mask, the union of the cached span bitmasks of its sets of at
    most dim-1 points, is every point.  Candidate enumeration works over
    canonical representatives.

    ``extension_rule`` decides each extension by one bit test.  Let w be in
    general position to the base a.  Then gp(w.s; a) iff the point of s is
    outside the forbidden mask of the points of w.a: by the exchange lemma
    (van der Kallen 1980), if s makes an entry x of w.a dependent on a set
    S of at most dim-2 other entries, x in span(S + s) but not in span(S),
    then s lies in span(S + x).  So each word carries its mask, which its
    extension by s grows through ``_SpanOracle.extend``.
    """

    set_blocking = True

    def __init__(self, p: int, dim: int):
        self.alphabet = Alphabet.vectors(p, dim)
        self.p = p
        self.dim = dim
        self.name = "vec"
        self._oracle = _SpanOracle(p, dim)
        self._indices: dict[tuple, int] = {}

    def _index(self, v) -> int:
        key = tuple(v)
        # Only a tuple of exact ints may hit the memo: (1.0, 0) equals (1, 0)
        # but is not a symbol, so it goes through check_symbol like any other.
        if all(type(a) is int for a in key):
            q = self._indices.get(key)
            if q is not None:
                return q
        q = self._indices[key] = self._oracle.index(self.alphabet.check_symbol(key))
        return q

    def gp(self, x, y) -> bool:
        return self._oracle.in_position(
            [self._index(v) for v in x], [self._index(v) for v in y]
        )

    def point_gp(self):
        """gp decided on point indices read from the relation's symbol memo,
        so it takes alphabet symbols only: a symbol in the memo is not
        validated again, and a miss goes through ``_index``.  The zero
        vector's index 0 reads as a miss and is looked up again."""
        in_position = self._oracle.in_position
        get, index = self._indices.get, self._index
        return lambda x, y: in_position(
            [get(v) or index(v) for v in x], [get(v) or index(v) for v in y]
        )

    def extension_rule(self, base):
        """One bit test per symbol against the forbidden mask of word.base.

        Masks are kept per word; the mask of a word is grown from its
        parent's the first time the word is passed.  Symbol indices are
        read from the relation's symbol memo, so the rule takes alphabet
        symbols only.
        """
        oracle = self._oracle
        get, lookup = self._indices.get, self._index

        def index(v):
            q = get(v)
            return lookup(v) if q is None else q

        points = tuple({index(v) for v in base} - {0})
        # word -> (forbidden mask of word.base, distinct points of word.base)
        known = {(): (oracle.forbidden(points), points)}
        last, mask = (), known[()][0]

        def admits(word, s):
            nonlocal last, mask
            if word is not last:
                entry = known.get(word)
                if entry is None:
                    parent_mask, parent_points = known[word[:-1]]
                    q = index(word[-1])
                    entry = known[word] = (
                        oracle.extend(parent_mask, parent_points, q),
                        parent_points + (q,),
                    )
                last, mask = word, entry[0]
            return not mask >> index(s) & 1

        return admits

    def projective_points(self) -> list:
        """Canonical representatives of every projective point, sorted."""
        return [self._oracle.point(q) for q in range(1, self._oracle.size + 1)]

    def extension_candidates(self) -> list:
        return self.projective_points()

    def is_blocking(self, word) -> bool:
        return self._oracle.blocks([self._index(v) for v in word])

    def least_blocking(self, universe: list, n: int):
        """The lexicographically least blocking set of n points, or None.

        The universe ``gp_order`` passes is every projective point, in the
        order of their indices, so the walk runs on indices.  A blocking
        set spans, and GL_dim(F_p) maps any basis inside it to the standard
        one and preserves blocking, so a blocking n-set exists iff one
        contains the standard basis; that is decided first.  Only then are
        all n-sets walked, in lexicographic order.  Both searches carry
        each prefix's forbidden mask.  The witness is checked once more
        from scratch.
        """
        oracle = self._oracle
        points = range(1, oracle.size + 1)
        basis = tuple(oracle.index([int(i == j) for i in range(self.dim)]) for j in range(self.dim))
        rest = [q for q in points if q not in basis]
        if n < self.dim or _blocking_extension(oracle, basis, rest, n - self.dim) is None:
            return None
        witness = _blocking_extension(oracle, (), points, n)
        if witness is None or not oracle.blocks(witness):
            raise InternalInvariantBroken(
                "the blocking search contradicts the basis search", n=n, witness=witness
            )
        return tuple(oracle.point(q) for q in witness)


def _blocking_extension(oracle: _SpanOracle, points: tuple, candidates, n: int):
    """The lexicographically least n of the candidates, distinct nonzero
    points in increasing index order and none of them among the distinct
    nonzero points given, that block together with them; None if there are
    none.  A depth-first walk, n levels deep, that carries each prefix's
    forbidden mask through ``_SpanOracle.extend``."""
    full = (1 << (oracle.size + 1)) - 1

    def walk(mask, chosen, start, left):
        if not left:
            return chosen if mask == full else None
        prefix = points + chosen
        for i in range(start, len(candidates) - left + 1):
            q = candidates[i]
            found = walk(oracle.extend(mask, prefix, q), chosen + (q,), i + 1, left - 1)
            if found is not None:
                return found
        return None

    return walk(oracle.forbidden(points), (), 0, n)


# -- axiom checking ----------------------------------------------------------

class AxiomViolation(Value):
    __slots__ = ("axiom", "x", "y", "z")

    def __init__(self, axiom: str, x: Word, y: Word, z: Word):
        super().__init__(axiom, x, y, z)

    def to_json(self, alphabet: Alphabet) -> dict:
        return {
            "axiom": self.axiom,
            "x": alphabet.word_to_json(self.x),
            "y": alphabet.word_to_json(self.y),
            "z": alphabet.word_to_json(self.z),
        }


class AxiomReport(Value):
    __slots__ = ("relation", "trials", "seed", "passed", "hypothesis_hits", "violations")

    def __init__(self, relation, trials, seed, passed, hypothesis_hits=None, violations=None):
        super().__init__(relation, trials, seed, passed, hypothesis_hits or {}, violations or [])

    def to_json(self, alphabet: Alphabet) -> dict:
        return {
            "relation": self.relation,
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "hypothesis_hits": dict(sorted(self.hypothesis_hits.items())),
            "violations": [v.to_json(alphabet) for v in self.violations],
        }


MAX_RECORDED_VIOLATIONS = 5


def biased_triple_sampler(relation: GeneralPositionRelation):
    """Triple sampler for check_axioms.

    Word lengths are drawn uniformly from 0..3.  Half the draws build the
    combined word by greedy extension with elements already in general
    position, because uniformly random vector words are almost always
    degenerate and would never exercise the composition axiom's hypothesis.
    Each greedy pool keeps the candidates e in their own order with
    gp((e,); word), as the relation's ``extension_rule`` with the word so
    far as its base decides it for the empty word: one bit test per
    candidate for the vector relation, even for a degenerate word.
    """
    symbols = relation.alphabet.symbols()
    candidates = relation.extension_candidates()

    def sample(rng: random.Random):
        lengths = [rng.randint(0, 3) for _ in range(3)]
        total = sum(lengths)
        if rng.random() < 0.5:
            word: list = []
            for _ in range(total):
                admits = relation.extension_rule(tuple(word))
                pool = [e for e in candidates if admits((), e)]
                word.append(rng.choice(pool) if pool else rng.choice(symbols))
        else:
            word = [rng.choice(symbols) for _ in range(total)]
        x = tuple(word[: lengths[0]])
        y = tuple(word[lengths[0] : lengths[0] + lengths[1]])
        z = tuple(word[lengths[0] + lengths[1] :])
        return x, y, z

    return sample


def check_axioms(
    relation: GeneralPositionRelation, trials: int = 1000, seed: int = 0
) -> AxiomReport:
    """Randomized trial of the three axioms; failures become report entries,
    of which the first MAX_RECORDED_VIOLATIONS are kept."""
    if trials < 1:
        raise InvalidInput("need at least one trial", trials=trials)
    sampler = biased_triple_sampler(relation)
    rng = random.Random(seed)
    hits = {"symmetry": 0, "weaken-left": 0, "weaken-right": 0, "composition": 0}
    violations: list[AxiomViolation] = []

    def record(axiom, x, y, z):
        if len(violations) < MAX_RECORDED_VIOLATIONS:
            violations.append(AxiomViolation(axiom, x, y, z))

    for _ in range(trials):
        x, y, z = sampler(rng)
        yz = y + z

        base = relation.gp(x, yz)
        sx = tuple(rng.sample(x, len(x)))
        syz = tuple(rng.sample(yz, len(yz)))
        hits["symmetry"] += 1
        if relation.gp(sx, yz) != base or relation.gp(x, syz) != base:
            record("symmetry", x, y, z)

        if relation.gp(x + y, z):
            hits["weaken-left"] += 1
            if not relation.gp(x, yz):
                record("weaken-left", x, y, z)

        if base:
            hits["weaken-right"] += 1
            if not relation.gp(x, z):
                record("weaken-right", x, y, z)

        if base and relation.gp(y, z):
            hits["composition"] += 1
            if not relation.gp(x + y, z):
                record("composition", x, y, z)

    return AxiomReport(
        relation=relation.name,
        trials=trials,
        seed=seed,
        passed=not violations,
        hypothesis_hits=hits,
        violations=violations,
    )


# -- the order invariant -----------------------------------------------------

class GpOrderResult(Value):
    """Either the exact order with a blocking witness, or a lower bound."""

    __slots__ = ("exact", "value", "witness")

    def __init__(self, exact: bool, value: int, witness: tuple | None = None):
        super().__init__(exact, value, witness)

    @property
    def order(self) -> int | None:
        return self.value if self.exact else None

    @property
    def lower_bound(self) -> int:
        return self.value

    def to_json(self, alphabet: Alphabet) -> dict:
        return {
            "order": self.value if self.exact else None,
            "lower_bound": self.value,
            "witness": alphabet.word_to_json(self.witness) if self.witness is not None else None,
        }


def gp_order(relation: GeneralPositionRelation, max_n: int | None = None) -> GpOrderResult:
    """Smallest length of a word no candidate element is in general position to.

    The candidates are the relation's ``extension_candidates``.  Searches
    lengths 0, 1, ... in order, so an exact answer always comes with a
    shortest witness (the lexicographically least one).  When no blocking
    word of length up to max_n exists the result is the lower bound
    max_n + 1.  Each length is searched by the relation's
    ``least_blocking``.  Relations that declare ``set_blocking`` are searched
    over canonical sets, bounded by the number of candidates; otherwise all
    sequences with repeats are enumerated, which needs max_n.  The vector
    relation walks sets of points with their forbidden masks instead of
    testing each set from scratch.  A negative max_n is invalid input.
    """
    universe = sorted(set(relation.extension_candidates()))
    if not universe:
        raise InvalidInput("the search universe is empty")
    if max_n is None:
        if not relation.set_blocking:
            raise InvalidInput("a sequence search over an abstract relation needs max_n")
        max_n = len(universe)
    elif max_n < 0:
        raise InvalidInput("the search bound must be nonnegative", max_n=max_n)

    for n in range(max_n + 1):
        witness = relation.least_blocking(universe, n)
        if witness is not None:
            return GpOrderResult(exact=True, value=n, witness=witness)
    return GpOrderResult(exact=False, value=max_n + 1, witness=None)
