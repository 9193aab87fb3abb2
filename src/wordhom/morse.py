"""Algebraic Morse theory: a based complex reduced to its critical cells.

An acyclic matching pairs cells σ in degree k with cells τ in degree k+1
whose incidence [∂τ:σ] is ±1; every cell is critical, redundant (matched
with a partner one degree up) or collapsible (matched one degree down).  The
Morse complex has the critical cells as its basis and the same homology
(Forman 1998; Sköldberg 2006; Jöllenbeck–Welker 2009).

Both uses of a matching follow its gradient paths, from a redundant σ with
partner τ to the redundant faces ρ ≠ σ of τ, and one walk follows them.  It
classifies each cell once, the first time it is met, expands each redundant
cell it reaches once, with an explicit stack, and hands the expanded cells
on in finishing order, each with its τ, ε = [∂τ:σ] and the faces of τ that
are not collapsible.  A cell met again before its own walk has finished
closes a cycle of the matching; that, an incidence other than ±1, a partner
that is not collapsible or a critical cell not in the list raises
InternalInvariantBroken.  The boundary dicts are read, never written.  Two
passes read the walk:

  - ``morse_complex`` memoises, in finishing order, each cell's image R in
    the Morse complex: a critical cell maps to itself, a collapsible one to
    0, and a redundant σ to −ε·Σ [∂τ:ρ]·R(ρ) over the faces ρ ≠ σ of τ.
    The Morse boundary of a critical c is Σ [∂c:ρ]·R(ρ).  d_k meets cells
    of degree k−1 only, so the memo holds one degree, and a cell of image 0
    is dropped from later reads like a collapsible one.
  - ``morse_homotopy`` sums the chain homotopy h, with h(σ) = 0 for a
    collapsible σ and h(σ) = ε·τ − ε·Σ [∂τ:ρ]·h(ρ) for a redundant one.
    In reverse finishing order each coefficient is final when it is met,
    and is pushed on to τ and the other faces.

``injective_morse_complex`` applies the Morse complex to the derangement
matching on injective words, whose only critical cells are the
derangements, all in the top degree (Farmer's theorem), and
``filler.fill_injective`` the homotopy; ``grouphom`` applies the Morse
complex to Brown's collapsing scheme on the bar complex of a group.
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

# A walk's state for a cell it has met is the cell's partner while the cell
# is redundant and not yet expanded, or one of these.
_DROP = object()  # collapsible, or of image 0 in morse_complex: reads drop it
_ACTIVE = object()  # expanded, and some cell it reaches is not yet finished
_DONE = object()  # finished, or a listed critical cell

# Largest m for injective_morse_complex: at m=9 the walk reads all 362,880
# words of degree 8 in about 3 s with a 115 MB peak on a 2-core host; m=10
# would read ten times as many.
MAX_INJECTIVE_MORSE_M = 9


def _walker(classify, boundary, seen: dict):
    """The gradient walk of a matching, as ``(read, walk)``.

    ``read(faces)`` returns the (ρ, c) of a ``{face: coeff}`` dict whose ρ
    is not collapsible, and the redundant ρ among them not yet expanded.
    ``walk(cells)`` expands those and all they reach, and yields each
    expanded σ as [σ, τ, ε, read(∂τ) without σ] once all it reaches have
    been yielded.  ``seen`` holds the state of each cell met, so one walk
    goes on from where another stopped; the caller may set a listed
    critical cell to ``_DONE``, and a yielded one to ``_DROP``.
    """
    get = seen.get

    def read(faces, sigma=None):
        terms = []
        needed = []
        for rho, c in faces.items():
            state = get(rho)
            if state is None:
                kind, state = classify(rho)
                if kind == COLLAPSIBLE:
                    seen[rho] = _DROP
                    continue
                if kind != REDUNDANT:
                    raise InternalInvariantBroken(
                        "a critical cell is missing from the list", cell=rho
                    )
                seen[rho] = state
                needed.append(rho)
            elif state is _DROP:
                continue
            elif state is _ACTIVE:
                if rho == sigma:
                    continue
                raise InternalInvariantBroken("the matching has a cycle", cell=rho)
            elif state is not _DONE:
                needed.append(rho)
            terms.append((rho, c))
        return terms, needed

    def walk(stack):
        while stack:
            sigma = stack.pop()
            if type(sigma) is list:  # an expanded cell whose faces have finished
                seen[sigma[0]] = _DONE
                yield sigma
                continue
            tau = seen[sigma]
            if tau is _DONE or tau is _DROP:
                continue
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
            seen[sigma] = _ACTIVE
            terms, needed = read(faces, sigma)
            stack.append([sigma, tau, eps, terms])  # cells are hashable, so never lists
            stack += needed

    return read, walk


def morse_complex(critical, classify, boundary, *, complete, description=None) -> ChainComplexRep:
    """The Morse complex of an acyclic matching, as a complex without bases.

    ``critical[k]`` lists the critical cells of degree k, in basis order.
    ``classify(cell)`` returns ``(REDUNDANT, partner)``, ``(COLLAPSIBLE,
    None)`` or ``(CRITICAL, None)``, and ``boundary(cell)`` returns a
    ``{face: coeff}`` dict.  Cells of different degrees must differ, as words
    of different lengths do.  ``complete`` says whether the complex ends at
    the last degree listed or is truncated there (see ``ChainComplexRep``).
    """
    zero: dict = {}  # never written
    matrices = []
    for k in range(1, len(critical)):
        index = {cell: i for i, cell in enumerate(critical[k - 1])}
        images = {cell: {cell: 1} for cell in index}
        seen = dict.fromkeys(index, _DONE)
        read, walk = _walker(classify, boundary, seen)
        entries = {}
        for j, cell in enumerate(critical[k]):
            terms, needed = read(boundary(cell))
            for sigma, _, eps, faces in walk(needed):
                image = _combine(images, faces, -eps)
                if image:
                    images[sigma] = image
                else:  # later reads drop it, as they drop a collapsible cell
                    images[sigma] = zero
                    seen[sigma] = _DROP
            for crit, v in _combine(images, terms, 1).items():
                entries[index[crit], j] = v
        matrices.append(SparseIntMatrix(len(critical[k - 1]), len(critical[k]), entries))
    return ChainComplexRep(
        dims=tuple(len(level) for level in critical),
        boundaries=tuple(matrices),
        complete=complete,
        description=description,
    )


def _combine(images, terms, k) -> dict:
    """k·Σ c·R(ρ) over the terms (ρ, c); words that cancel are dropped."""
    total: dict = {}
    tget, tpop = total.get, total.pop
    for rho, c in terms:
        c *= k
        for crit, v in images[rho].items():
            val = tget(crit, 0) + c * v
            if val:
                total[crit] = val
            else:
                tpop(crit, None)
    return total


def morse_homotopy(chain: dict, classify, boundary) -> tuple:
    """h(z) for the ``{cell: coeff}`` chain z, h the matching's chain homotopy,
    as a dict, and the (σ, τ, ε) it was summed from, in summing order.

    Every cell of z must be collapsible or redundant.  A σ is listed when
    its coefficient c is nonzero as the pass meets it: τ gets ε·c (partners
    are distinct), and each other face ρ of τ loses ε·c·[∂τ:ρ].
    """
    read, walk = _walker(classify, boundary, {})
    terms, needed = read(chain)
    coeffs = dict(terms)
    out: dict = {}
    matched = []
    for sigma, tau, eps, faces in reversed(list(walk(needed))):
        c = coeffs.pop(sigma, 0)
        if c:
            matched.append((sigma, tau, eps))
            c *= eps
            out[tau] = c
            for rho, d in faces:
                coeffs[rho] = coeffs.get(rho, 0) - c * d
    return out, matched


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
    and at any m the walk refuses a cycle on the paths it follows.
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
