"""Alphabets and symbols.

Two kinds of alphabet are supported: the letters 1..m, and the vectors of a
fixed dimension over a prime field F_p.  A symbol is an ``int`` in the first
case and a tuple of residues mod p in the second.  A word is a plain tuple of
symbols; the empty tuple is the unique word of length zero.
"""

from __future__ import annotations

import itertools
import json
import math

from .errors import InvalidInput

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_VECTOR_DIM = 6

Symbol = object  # int for letters, tuple[int, ...] for vectors
Word = tuple


class Value:
    """Immutable record of its ``__slots__`` fields, set in that order and compared by value."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle rebuild through __init__, which takes the fields
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Alphabet(Value):
    """Ground alphabet of a word complex; sizes are exact ints, not True or 2.0."""

    __slots__ = ("kind", "m", "p", "dim")

    def __init__(self, kind: str, m: int = 0, p: int = 0, dim: int = 0):
        super().__init__(kind, m, p, dim)  # kind is "letters" or "vectors"

    @staticmethod
    def letters(m: int) -> "Alphabet":
        if type(m) is not int or m < 1:
            raise InvalidInput("letters alphabet needs a positive integer size", m=m)
        return Alphabet(kind="letters", m=m)

    @staticmethod
    def vectors(p: int, dim: int) -> "Alphabet":
        if type(p) is not int or p not in SUPPORTED_PRIMES:
            raise InvalidInput(
                "vector alphabets are supported over prime fields with p <= 13",
                p=p,
            )
        if type(dim) is not int or not 1 <= dim <= MAX_VECTOR_DIM:
            raise InvalidInput("vector dimension must be between 1 and 6", dim=dim)
        return Alphabet(kind="vectors", p=p, dim=dim)

    def symbols(self):
        """All symbols in canonical (sorted) order."""
        if self.kind == "letters":
            return [i for i in range(1, self.m + 1)]
        return [tuple(v) for v in itertools.product(range(self.p), repeat=self.dim)]

    def check_symbol(self, s) -> Symbol:
        if self.kind == "letters":
            if not isinstance(s, int) or isinstance(s, bool) or not 1 <= s <= self.m:
                raise InvalidInput("letter out of range", symbol=s, m=self.m)
            return s
        if not isinstance(s, tuple) or len(s) != self.dim:
            raise InvalidInput("vector symbol has the wrong shape", symbol=s, dim=self.dim)
        if not all(type(a) is int and 0 <= a < self.p for a in s):
            raise InvalidInput("vector entries must be reduced residues mod p", symbol=s, p=self.p)
        return s

    def check_word(self, word) -> Word:
        return tuple(self.check_symbol(s) for s in word)

    # JSON encoding: a letter is an integer, a vector an array of integers.
    def symbol_to_json(self, s):
        return s if self.kind == "letters" else list(s)

    def symbol_from_json(self, obj) -> Symbol:
        if self.kind == "letters":
            if not isinstance(obj, int):
                raise InvalidInput("letter symbol must be an integer", value=obj)
            return self.check_symbol(obj)
        if not isinstance(obj, list):
            raise InvalidInput("vector symbol must be an array of integers", value=obj)
        return self.check_symbol(tuple(obj))

    def word_to_json(self, word) -> list:
        return [self.symbol_to_json(s) for s in word]

    def word_from_json(self, obj) -> Word:
        if not isinstance(obj, list):
            raise InvalidInput("word must be an array of symbols", value=obj)
        return tuple(self.symbol_from_json(s) for s in obj)

    def to_json(self) -> dict:
        if self.kind == "letters":
            return {"kind": "letters", "m": self.m}
        return {"kind": "vectors", "p": self.p, "dim": self.dim}

    @staticmethod
    def from_json(obj) -> "Alphabet":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidInput("alphabet object must carry a 'kind' field", value=obj)
        if obj["kind"] == "letters":
            return Alphabet.letters(obj.get("m"))
        if obj["kind"] == "vectors":
            return Alphabet.vectors(obj.get("p"), obj.get("dim"))
        raise InvalidInput("unknown alphabet kind", kind=obj["kind"])


def parse_json(text: str, name: str):
    """``json.loads`` where NaN, Infinity or 1e400 is InvalidInput naming the literal."""

    def finite(literal: str) -> float:
        if math.isfinite(value := float(literal)):
            return value
        raise InvalidInput(f"{name} holds a number that is not finite", number=literal)

    try:
        return json.loads(text, parse_constant=finite, parse_float=finite)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise InvalidInput(f"{name} is not valid JSON: {exc}") from exc
