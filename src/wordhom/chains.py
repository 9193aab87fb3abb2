"""Homogeneous integer chains of words.

A chain of degree n is a finite integer linear combination of words of length
n over one alphabet.  Coefficients are arbitrary-precision integers and zero
coefficients are never stored, so equality is plain term-map equality.  Terms
are kept in canonical (lexicographic) order when iterated or serialized,
which makes serialization injective on distinct chains.

The boundary d(x_1, …, x_n) = Σ (−1)^(j+1) (…, x̂_j, …) has one kernel,
``add_boundary``, which Chain.boundary and the fillers call; it takes the
faces from ``itertools.combinations``, last entry deleted first.  Its
single-word form, ``word_boundary``, serves the Morse kernel: the faces of a
word with pairwise distinct entries cannot coincide, so their boundary is one
dict of the faces against a precomputed sign tuple, and any other word falls
back to ``add_boundary``.
"""

from __future__ import annotations

import json
from itertools import combinations

from .alphabet import Alphabet, Word, parse_json
from .errors import DisjointnessViolation, InvalidInput

PRODUCT_MODES = ("concat", "disjoint")


def add_terms(out: dict, terms: dict, k: int = 1) -> None:
    """out += k * terms on {word: coeff} dicts, dropping words that cancel."""
    for word, coeff in terms.items():
        val = out.get(word, 0) + k * coeff
        if val:
            out[word] = val
        else:
            out.pop(word, None)


def add_boundary(out: dict, terms: dict, k: int = 1) -> None:
    """out += k * boundary(terms), the alternating sum of single-entry deletions.

    This is the package's one face rule.  ``combinations(word, n - 1)`` yields
    the faces of a word of length n that delete entry n-1, then n-2, down to
    entry 0, so the first sign is (-1)^(n-1) and the signs alternate from
    there.  The empty word has no faces.
    """
    get, pop = out.get, out.pop
    for word, coeff in terms.items():
        n = len(word)
        if not n:
            continue
        c = k * coeff if n % 2 else -k * coeff
        for face in combinations(word, n - 1):
            val = get(face, 0) + c
            if val:
                out[face] = val
            else:
                pop(face, None)
            c = -c


# FACE_SIGNS[n]: the signs of the faces of a word of length n, in the order
# combinations(word, n - 1) yields them: (-1)^(n-1), ..., -1, +1.
FACE_SIGNS = tuple(tuple((-1) ** (n - 1 - i) for i in range(n)) for n in range(33))


def word_boundary(word) -> dict:
    """The boundary of one word, as a new {face: coeff} dict.

    The single-word form of ``add_boundary``.  A word whose faces are
    pairwise distinct, as they are when its entries are, has the boundary
    ``dict(zip(faces, FACE_SIGNS[n]))`` with nothing to merge; any other
    word, or one longer than FACE_SIGNS reaches, goes through
    ``add_boundary``.
    """
    n = len(word)
    if 0 < n < len(FACE_SIGNS):
        faces = dict(zip(combinations(word, n - 1), FACE_SIGNS[n]))
        if len(faces) == n:
            return faces
    out: dict = {}
    add_boundary(out, {word: 1})
    return out


class Chain:
    """Immutable homogeneous chain."""

    __slots__ = ("alphabet", "degree", "_terms")

    def __init__(self, alphabet: Alphabet, degree: int, terms=None, _validated=False):
        if degree < 0:
            raise InvalidInput("chain degree must be nonnegative", degree=degree)
        clean = {}
        if terms:
            for word, coeff in dict(terms).items():
                if not coeff:
                    continue
                if not _validated:
                    word = alphabet.check_word(word)
                    if len(word) != degree:
                        raise InvalidInput(
                            "term length differs from chain degree",
                            word=word,
                            degree=degree,
                        )
                clean[word] = coeff
        object.__setattr__(self, "alphabet", alphabet)
        # The zero chain is degree-ambiguous; normalizing it to degree zero
        # makes it unique, so equality and serialization stay canonical.
        object.__setattr__(self, "degree", degree if clean else 0)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Chain, (self.alphabet, self.degree, self._terms, True)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(alphabet: Alphabet, degree: int) -> "Chain":
        return Chain(alphabet, degree, None, _validated=True)

    @staticmethod
    def term(alphabet: Alphabet, word, coeff: int = 1) -> "Chain":
        word = alphabet.check_word(word)
        return Chain(alphabet, len(word), {word: coeff}, _validated=True)

    # -- basic queries ------------------------------------------------
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Term list in canonical order, as (word, coefficient) pairs."""
        return sorted(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.alphabet == other.alphabet
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.alphabet, self.degree, tuple(self.terms())))

    def __repr__(self):
        if self.is_zero():
            return f"Chain<deg {self.degree}, 0>"
        body = " + ".join(f"{c}*{w}" for w, c in self.terms())
        return f"Chain<deg {self.degree}, {body}>"

    # -- module structure ----------------------------------------------
    def _compatible(self, other: "Chain"):
        if not isinstance(other, Chain):
            raise InvalidInput("expected a chain", value=other)
        if other.alphabet != self.alphabet:
            raise InvalidInput("chains live over different alphabets")

    def _combine(self, other: "Chain", k: int) -> "Chain":
        """self + k * other; a zero chain adds to a chain of any degree."""
        self._compatible(other)
        if self._terms and other._terms and self.degree != other.degree:
            raise InvalidInput(
                "cannot add chains of different degrees",
                left=self.degree,
                right=other.degree,
            )
        out = dict(self._terms)
        add_terms(out, other._terms, k)
        degree = self.degree if self._terms else other.degree
        return Chain(self.alphabet, degree, out, _validated=True)

    def __add__(self, other: "Chain") -> "Chain":
        return self._combine(other, 1)

    def __neg__(self) -> "Chain":
        return Chain(
            self.alphabet,
            self.degree,
            {w: -c for w, c in self._terms.items()},
            _validated=True,
        )

    def __sub__(self, other: "Chain") -> "Chain":
        return self._combine(other, -1)

    def scale(self, k: int) -> "Chain":
        if not k:
            return Chain.zero(self.alphabet, self.degree)
        return Chain(
            self.alphabet,
            self.degree,
            {w: k * c for w, c in self._terms.items()},
            _validated=True,
        )

    def __rmul__(self, k: int) -> "Chain":
        return self.scale(k)

    # -- the operations of the algebra ---------------------------------
    def boundary(self) -> "Chain":
        """Alternating sum of single-entry deletions.

        A word of length one maps to the empty word (the augmentation), and a
        degree-zero chain maps to the zero chain.
        """
        if self.degree == 0:
            return Chain.zero(self.alphabet, 0)
        out: dict[Word, int] = {}
        add_boundary(out, self._terms)
        return Chain(self.alphabet, self.degree - 1, out, _validated=True)

    def product(self, other: "Chain", mode: str = "concat") -> "Chain":
        """Bilinear extension of word juxtaposition.

        In ``disjoint`` mode no symbol may appear in both factors; sharing a
        symbol raises DisjointnessViolation naming one shared symbol.
        """
        self._compatible(other)
        if mode not in PRODUCT_MODES:
            raise InvalidInput("unknown product mode", mode=mode)
        if mode == "disjoint":
            shared = self.appearing_symbols() & other.appearing_symbols()
            if shared:
                sym = min(shared)
                raise DisjointnessViolation(
                    f"symbol {sym!r} appears in both factors",
                    symbol=sym,
                )
        out: dict[Word, int] = {}
        for w1, c1 in self._terms.items():
            add_terms(out, {w1 + w2: c2 for w2, c2 in other._terms.items()}, c1)
        return Chain(self.alphabet, self.degree + other.degree, out, _validated=True)

    def appearing_symbols(self) -> set:
        """Set of symbols occurring in any stored term."""
        out = set()
        for word in self._terms:
            out.update(word)
        return out

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet.to_json(),
            "degree": self.degree,
            "terms": [
                {"coeff": c, "word": self.alphabet.word_to_json(w)}
                for w, c in self.terms()
            ],
        }

    @staticmethod
    def from_json(obj) -> "Chain":
        if not isinstance(obj, dict):
            raise InvalidInput("chain object must be a JSON object", value=obj)
        for field in ("alphabet", "degree", "terms"):
            if field not in obj:
                raise InvalidInput(f"chain object is missing '{field}'")
        alphabet = Alphabet.from_json(obj["alphabet"])
        degree = obj["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise InvalidInput("degree must be a nonnegative integer", degree=degree)
        if not isinstance(obj["terms"], list):
            raise InvalidInput("terms must be an array", terms=obj["terms"])
        terms = {}
        for entry in obj["terms"]:
            if not isinstance(entry, dict) or "word" not in entry or "coeff" not in entry:
                raise InvalidInput(
                    "each term must be an object with 'word' and 'coeff'", term=entry
                )
            word = alphabet.word_from_json(entry["word"])
            coeff = entry["coeff"]
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise InvalidInput("coefficients must be integers", coeff=coeff)
            if len(word) != degree:
                raise InvalidInput("term length differs from degree", word=word)
            if word in terms:
                raise InvalidInput("duplicate term in chain object", word=word)
            if coeff:
                terms[word] = coeff
        return Chain(alphabet, degree, terms, _validated=True)

    def serialize(self) -> str:
        """Canonical string form; equal chains serialize identically."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def parse(text: str) -> "Chain":
        return Chain.from_json(parse_json(text, "the chain"))
