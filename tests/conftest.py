"""Shared test helpers: random chain generators, a naive normal-form oracle and
a matching on injective words that has a gradient cycle."""

import os
import pathlib
import random
from itertools import permutations

from wordhom import Alphabet, Chain
from wordhom.morse import COLLAPSIBLE, CRITICAL, REDUNDANT


def subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH.

    A child interpreter does not see pytest's pythonpath setting, so without
    it `python -m wordhom` would need an installed package.
    """
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def letter_by_letter_matching(m):
    """Match w with a·w for a = 1, 2, ... in turn, among the words earlier letters left.

    This matching is not acyclic: at m=3 it pairs (2,1) with (3,2,1) and
    (3,1) with (2,3,1), and (2,1)→(3,2,1)→(3,1)→(2,3,1)→(2,1) is a cycle.
    """
    left = {w for k in range(m + 1) for w in permutations(range(1, m + 1), k)}
    partner = {}
    for a in range(1, m + 1):
        for w in sorted(left, key=len):
            up = (a,) + w
            if a not in w and w in left and up in left:
                partner[w] = up
                left -= {w, up}
    down = set(partner.values())

    def classify(w):
        if w in partner:
            return REDUNDANT, partner[w]
        return (COLLAPSIBLE if w in down else CRITICAL), None

    critical = [sorted(w for w in left if len(w) == k) for k in range(m + 1)]
    return critical, classify, partner


def random_letter_chain(rng, m, degree, max_terms=3, coeff=4, injective=False):
    alphabet = Alphabet.letters(m)
    letters = list(range(1, m + 1))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if injective:
            word = tuple(rng.sample(letters, degree))
        else:
            word = tuple(rng.choice(letters) for _ in range(degree))
        c = rng.randint(-coeff, coeff)
        if c:
            terms[word] = c
    return Chain(alphabet, degree, terms)


def random_vector_chain(rng, p, dim, degree, max_terms=3, coeff=3):
    alphabet = Alphabet.vectors(p, dim)
    symbols = alphabet.symbols()
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(symbols) for _ in range(degree))
        c = rng.randint(-coeff, coeff)
        if c:
            terms[word] = c
    return Chain(alphabet, degree, terms)


def random_gp_word(rng, relation, base, length, max_tries=2000):
    nonzero = [s for s in relation.alphabet.symbols() if any(s)]
    for _ in range(max_tries):
        word = tuple(rng.choice(nonzero) for _ in range(length))
        if relation.gp(word, base):
            return word
    raise RuntimeError("could not sample a word in general position")


def random_gp_chain(rng, relation, base, degree, max_terms=3, coeff=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = random_gp_word(rng, relation, base, degree)
        c = rng.randint(-coeff, coeff)
        if c:
            terms[word] = c
    return Chain(relation.alphabet, degree, terms)


def naive_smith_normal_form(dense):
    """Textbook dense Smith normal form over Z; an independent oracle.

    No pivot strategy, no sparsity: move the absolutely smallest nonzero
    entry to the corner, reduce its row and column by division with
    remainder, fix divisibility by folding in offending rows, recurse.
    """
    a = [row[:] for row in dense]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors = []
    top = 0
    left = 0
    while top < rows and left < cols:
        best = None
        for i in range(top, rows):
            for j in range(left, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[left], row[j] = row[j], row[left]
        pivot = a[top][left]
        dirty = False
        for i in range(top + 1, rows):
            if a[i][left]:
                q = a[i][left] // pivot
                for j in range(left, cols):
                    a[i][j] -= q * a[top][j]
                if a[i][left]:
                    dirty = True
        for j in range(left + 1, cols):
            if a[top][j]:
                q = a[top][j] // pivot
                for i in range(top, rows):
                    a[i][j] -= q * a[i][left]
                if a[top][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(top + 1, rows):
            for j in range(left + 1, cols):
                if a[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(left, cols):
                a[top][j] += a[offender][j]
            continue
        factors.append(abs(pivot))
        top += 1
        left += 1
    return factors
