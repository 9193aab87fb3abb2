"""Homogeneous integer chains of words.

A chain of degree n is a finite integer linear combination of words of length
n over one alphabet.  Coefficients are arbitrary-precision integers and zero
coefficients are never stored, so equality is plain term-map equality.  Terms
are kept in canonical (lexicographic) order when iterated or serialized,
which makes serialization injective on distinct chains.
"""

from __future__ import annotations

import json

from .alphabet import Alphabet, Word
from .errors import DisjointnessViolation, InvalidInput

PRODUCT_MODES = ("concat", "disjoint")


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

    def coefficient(self, word) -> int:
        return self._terms.get(tuple(word), 0)

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

    def __add__(self, other: "Chain") -> "Chain":
        self._compatible(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise InvalidInput(
                "cannot add chains of different degrees",
                left=self.degree,
                right=other.degree,
            )
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            val = out.get(word, 0) + coeff
            if val:
                out[word] = val
            else:
                out.pop(word, None)
        return Chain(self.alphabet, self.degree, out, _validated=True)

    def __neg__(self) -> "Chain":
        return Chain(
            self.alphabet,
            self.degree,
            {w: -c for w, c in self._terms.items()},
            _validated=True,
        )

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

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

    @staticmethod
    def sum(alphabet: Alphabet, degree: int, chains) -> "Chain":
        """Sum of chains of one degree, accumulated in a single term dict.

        A running ``total = total + part`` copies the total on every step;
        this adds each term once.  Zero chains are skipped whatever their
        stored degree, as in ``+``.
        """
        out: dict[Word, int] = {}
        for chain in chains:
            if chain.is_zero():
                continue
            if chain.alphabet != alphabet or chain.degree != degree:
                raise InvalidInput(
                    "summands must share the alphabet and the degree",
                    degree=degree,
                    summand_degree=chain.degree,
                )
            for word, coeff in chain._terms.items():
                out[word] = out.get(word, 0) + coeff
        return Chain(alphabet, degree, out, _validated=True)

    # -- the operations of the algebra ---------------------------------
    def boundary(self) -> "Chain":
        """Alternating sum of single-entry deletions.

        A word of length one maps to the empty word (the augmentation), and a
        degree-zero chain maps to the zero chain.
        """
        if self.degree == 0:
            return Chain.zero(self.alphabet, 0)
        out: dict[Word, int] = {}
        for word, coeff in self._terms.items():
            sign = 1
            for j in range(len(word)):
                face = word[:j] + word[j + 1 :]
                val = out.get(face, 0) + sign * coeff
                if val:
                    out[face] = val
                else:
                    out.pop(face, None)
                sign = -sign
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
            for w2, c2 in other._terms.items():
                word = w1 + w2
                val = out.get(word, 0) + c1 * c2
                if val:
                    out[word] = val
                else:
                    out.pop(word, None)
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
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"not valid JSON: {exc}") from exc
        return Chain.from_json(obj)
