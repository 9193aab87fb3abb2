"""Algebraic Morse theory: a based complex reduced to its critical cells.

An acyclic matching pairs cells σ in degree k with cells τ in degree k+1
whose incidence [∂τ:σ] is ±1; every cell is critical, redundant (matched
with a partner one degree up) or collapsible (matched one degree down).  The
Morse complex has the critical cells as its basis and the same homology
(Forman 1998; Sköldberg 2006; Jöllenbeck–Welker 2009).  Each cell has an
image R in it, memoised:

  - a critical cell maps to itself;
  - a collapsible cell maps to 0;
  - a redundant σ with partner τ maps to −ε·Σ [∂τ:ρ]·R(ρ) over the faces
    ρ ≠ σ of τ, where ε = [∂τ:σ].

The Morse boundary of a critical cell c is Σ [∂c:ρ]·R(ρ).  Images are
computed with an explicit stack, and each cell is classified once, the first
time it is met; d_k meets cells of degree k−1 only, so the memo holds one
degree at a time.  Each face of a boundary is looked up in the memo once.
Only critical and redundant faces contribute: a collapsible face is dropped
when its boundary is read, so it never reaches a sum, and the images of the
rest are summed in one pass.  ε comes from a lookup and σ is skipped, so the
boundary dicts are read but never copied or written.  A cell met again while
its own image is still being computed means the matching has a cycle, and
that, an incidence other than ±1, or a classifier that contradicts itself
raises InternalInvariantBroken.

``injective_morse_complex`` applies the kernel to the derangement matching
on injective words, whose only critical cells are the derangements, all in
the top degree (Farmer's theorem), and ``grouphom`` to Brown's collapsing
scheme on the bar complex of a group.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations

from .chains import word_boundary
from .complexes import ChainComplexRep
from .errors import InternalInvariantBroken, InvalidInput
from .linalg import SparseIntMatrix

CRITICAL = "critical"
COLLAPSIBLE = "collapsible"
REDUNDANT = "redundant"

# Largest m for injective_morse_complex: at m=9 the flow reads all 362,880
# words of degree 8 in about 3 s with a 115 MB peak on a 2-core host; m=10
# would read ten times as many.
MAX_INJECTIVE_MORSE_M = 9


def morse_complex(critical, classify, boundary, *, complete, description=None) -> ChainComplexRep:
    """The Morse complex of an acyclic matching, as a complex without bases.

    ``critical[k]`` lists the critical cells of degree k, in basis order.
    ``classify(cell)`` returns ``(REDUNDANT, partner)``, ``(COLLAPSIBLE,
    None)`` or ``(CRITICAL, None)``, and ``boundary(cell)`` returns a
    ``{face: coeff}`` dict.  Cells of different degrees must differ, as words
    of different lengths do.  ``complete`` says whether the complex ends at
    the last degree listed or is truncated there (see ``ChainComplexRep``).
    Only the cells reached from the critical ones are classified, each
    once, or expanded.
    """
    images: dict = {}  # cell -> its image; ``zero`` for every collapsible cell
    partners: dict = {}  # redundant cell -> its partner, until it is expanded
    pending: dict = {}  # expanded cell -> (its terms, −ε), while its image is being computed
    zero: dict = {}  # never written
    get = images.get

    def read(faces, sigma=None):
        """The faces of a boundary that can contribute, as ``(terms,
        needed)``: terms lists (ρ, R(ρ), c) in boundary order, with R(ρ) None
        while it is unknown, and needed lists those ρ.  Each face is looked
        up once; one met for the first time is classified once, and a
        collapsible one is memoised and dropped.  σ, the expanded cell, is
        skipped, and meeting a cell that is being expanded is a cycle."""
        terms = []
        needed = []
        for rho, c in faces.items():
            image = get(rho)
            if image is None:
                if rho == sigma:
                    continue
                if rho in pending:
                    raise InternalInvariantBroken("the matching has a cycle", cell=rho)
                if rho not in partners:
                    kind, partner = classify(rho)
                    if kind == COLLAPSIBLE:
                        images[rho] = zero
                        continue
                    if kind != REDUNDANT:
                        raise InternalInvariantBroken(
                            "a critical cell is missing from the list", cell=rho
                        )
                    partners[rho] = partner
                needed.append(rho)
            elif not image:
                continue
            terms.append((rho, image, c))
        return terms, needed

    def combine(terms, k) -> dict:
        """k·Σ c·R(ρ) over the terms; words that cancel are dropped."""
        total: dict = {}
        tget, tpop = total.get, total.pop
        for rho, image, c in terms:
            if image is None:
                image = images[rho]
            c *= k
            for crit, v in image.items():
                val = tget(crit, 0) + c * v
                if val:
                    total[crit] = val
                else:
                    tpop(crit, None)
        return total

    def flow(stack):
        """Memoise the images of the cells on the stack and of all they reach."""
        while stack:
            sigma = stack[-1]
            if sigma in images:
                stack.pop()
                continue
            entry = pending.pop(sigma, None)
            if entry is None:
                tau = partners.pop(sigma)
                if classify(tau)[0] != COLLAPSIBLE:
                    raise InternalInvariantBroken(
                        "the partner of a cell is not collapsible", cell=sigma
                    )
                faces = boundary(tau)
                eps = faces.get(sigma, 0)
                if eps not in (1, -1):
                    raise InternalInvariantBroken(
                        "a matched incidence is not ±1", cell=sigma, incidence=eps
                    )
                terms, needed = read(faces, sigma)
                if needed:
                    pending[sigma] = (terms, -eps)
                    stack += needed
                    continue
                entry = terms, -eps
            images[sigma] = combine(*entry)
            stack.pop()

    matrices = []
    for k in range(1, len(critical)):
        index = {cell: i for i, cell in enumerate(critical[k - 1])}
        images.clear()
        images.update((cell, {cell: 1}) for cell in index)
        entries = {}
        for j, cell in enumerate(critical[k]):
            terms, needed = read(boundary(cell))
            if needed:
                flow(needed)
            for crit, v in combine(terms, 1).items():
                entries[index[crit], j] = v
        matrices.append(SparseIntMatrix(len(critical[k - 1]), len(critical[k]), entries))
    return ChainComplexRep(
        dims=tuple(len(level) for level in critical),
        boundaries=tuple(matrices),
        complete=complete,
        description=description,
    )


def injective_classify(m: int, word):
    """The derangement matching on injective words of 1..m.

    With w = (x_1..x_n), let i be the least index with x_i = i, or with i
    absent from w and i ≤ n+1.  If x_i = i, w is collapsible (partner w
    without x_i).  Otherwise w is redundant, paired with w with i inserted
    at position i, with incidence (−1)^{i+1}; the partner's least index is
    again i, so this is an involution.  Below degree m some i ≤ n+1 is
    absent, so only permutations without a fixed point, the derangements,
    are critical, and ``filler.fill_injective`` fills lower cycles with
    this matching's homotopy.  Acyclicity is checked, not proven:
    ``tests/test_morse.py::test_derangement_matching_has_no_gradient_cycle``
    searches every gradient path for each m up to MAX_INJECTIVE_MORSE_M,
    and above it the filler checks at run time each path it walks.
    """
    for i, x in enumerate(word, 1):
        if x == i:
            return COLLAPSIBLE, None
        if i not in word:
            return REDUNDANT, word[: i - 1] + (i,) + word[i - 1 :]
    if len(word) < m:
        return REDUNDANT, word + (len(word) + 1,)
    return CRITICAL, None


def injective_critical_words(m: int, k: int) -> list:
    """The critical words of length k: the derangements of 1..m, in
    lexicographic order, when k = m, and none otherwise."""
    if k != m:
        return []
    return [w for w in permutations(range(1, m + 1)) if all(x != i for i, x in enumerate(w, 1))]


def injective_morse_complex(m: int) -> ChainComplexRep:
    """The Morse complex of injective words on 1..m under the derangement matching.

    Its basis is the D_m derangements, all in degree m, so it has no
    differential, and its homology is that of build_injective(m): Farmer's
    theorem with the rank read off the matching.
    """
    if not isinstance(m, int) or not 1 <= m <= MAX_INJECTIVE_MORSE_M:
        raise InvalidInput(
            f"the injective Morse complex is supported for 1 <= m <= {MAX_INJECTIVE_MORSE_M}", m=m
        )
    return morse_complex(
        [injective_critical_words(m, k) for k in range(m + 1)],
        partial(injective_classify, m),
        word_boundary,
        complete=True,
        description={"complex": "injective-morse", "m": m},
    )
