"""The algebraic-Morse kernel and the derangement matching on injective words."""

import sys
from functools import partial
from itertools import permutations
from math import factorial
from types import MappingProxyType

import pytest

from wordhom import InternalInvariantBroken, InvalidInput, build_injective, homology_table
from wordhom.homology import HomologyGroup, derangement_count
from wordhom.morse import (
    COLLAPSIBLE,
    CRITICAL,
    MAX_INJECTIVE_MORSE_M,
    REDUNDANT,
    injective_classify,
    injective_critical_words,
    injective_morse_complex,
    morse_complex,
    morse_homotopy,
    word_boundary,
)
from conftest import letter_by_letter_matching


@pytest.mark.parametrize("m", range(1, 8))
def test_morse_table_equals_the_full_snf(m):
    assert homology_table(injective_morse_complex(m)) == homology_table(build_injective(m))


@pytest.mark.parametrize("m", range(1, 8))
def test_critical_counts_are_falling_factorials(m):
    """The critical counts are (0, ..., 0, D_m), and their Euler characteristic
    is that of the m!/(m-k)! words of each degree k."""
    dims = injective_morse_complex(m).dims
    assert dims == (0,) * m + (derangement_count(m),)
    euler = sum((-1) ** k * factorial(m) // factorial(m - k) for k in range(m + 1))
    assert (-1) ** m * dims[m] == euler


@pytest.mark.parametrize("m", range(1, 8))
def test_critical_words_are_the_classified_ones(m):
    for k in range(m + 1):
        classified = [
            w for w in permutations(range(1, m + 1), k) if injective_classify(m, w)[0] == CRITICAL
        ]
        assert injective_critical_words(m, k) == classified, k


def _collapse(word):
    """The partner of a collapsible word, by the rule written out again: drop
    x_i at the least index i with x_i = i or with i absent and i <= n+1."""
    for i in range(1, len(word) + 2):
        if i <= len(word) and word[i - 1] == i:
            return word[: i - 1] + word[i:], i
        if i not in word:
            return None, i


@pytest.mark.parametrize("m", range(1, 8))
def test_derangement_matching_is_an_involution(m):
    """Each redundant word's partner is collapsible, collapses back to the
    word at the inserted index i, and has incidence (-1)^(i+1) on it."""
    classify = partial(injective_classify, m)
    partners = set()
    collapsible = 0
    for k in range(m + 1):
        for w in permutations(range(1, m + 1), k):
            kind, tau = classify(w)
            if kind == COLLAPSIBLE:
                collapsible += 1
            if kind != REDUNDANT:
                continue
            assert classify(tau) == (COLLAPSIBLE, None)
            back, i = _collapse(tau)
            assert back == w
            assert word_boundary(tau)[w] == (-1) ** (i + 1)
            partners.add(tau)
    assert len(partners) == collapsible


def _gradient_cycle(classify, words):
    """A cycle of the gradient graph, as a list of cells, or None.

    The edges run from a redundant σ to every redundant face ρ ≠ σ of σ's
    partner.  An iterative depth-first search, started from each of the words.
    """
    on_path, done = 1, 2
    state = {}

    def successors(sigma):
        kind, tau = classify(sigma)
        if kind != REDUNDANT:
            return iter(())
        return iter([r for r in word_boundary(tau) if r != sigma and classify(r)[0] == REDUNDANT])

    for root in words:
        if root in state:
            continue
        state[root] = on_path
        path, stack = [root], [successors(root)]
        while stack:
            for rho in stack[-1]:
                seen = state.get(rho)
                if seen == on_path:
                    return path[path.index(rho) :]
                if seen is None:
                    state[rho] = on_path
                    path.append(rho)
                    stack.append(successors(rho))
                    break
            else:
                state[path.pop()] = done
                stack.pop()
    return None


@pytest.mark.parametrize("m", range(1, MAX_INJECTIVE_MORSE_M + 1))
def test_derangement_matching_has_no_gradient_cycle(m):
    """Exhaustive up to the library's cap: no gradient path from any word
    below degree m returns to itself, no such word is critical, and the
    critical words of degree m are the permutations without a fixed point."""
    classify = partial(injective_classify, m)
    lower = [w for k in range(m) for w in permutations(range(1, m + 1), k)]
    assert all(classify(w)[0] != CRITICAL for w in lower)
    assert _gradient_cycle(classify, lower) is None
    words = list(permutations(range(1, m + 1)))
    top = [w for w in words if classify(w)[0] == CRITICAL]
    assert top == [w for w in words if all(x != i for i, x in enumerate(w, 1))]


def test_gradient_cycle_search_finds_a_planted_cycle():
    _, classify, _ = letter_by_letter_matching(3)
    words = [w for k in range(3) for w in permutations(range(1, 4), k)]
    cycle = _gradient_cycle(classify, words)
    assert cycle is not None and set(cycle) == {(2, 1), (3, 1)}


def test_library_cap():
    for m in (0, 10, "3"):
        with pytest.raises(InvalidInput):
            injective_morse_complex(m)


def _reduce(critical, classify, boundary):
    morse_complex(critical, classify, boundary, complete=True)


def _fill(critical, classify, boundary):
    """The homotopy of the boundary of each critical cell of the top degree,
    whose faces all lie in the degree below."""
    for cell in critical[-1]:
        morse_homotopy(boundary(cell), classify, boundary)


# Both passes over the gradient walk refuse a broken matching the same way.
both_passes = pytest.mark.parametrize(
    "walk", [_reduce, _fill], ids=["morse_complex", "morse_homotopy"]
)


@both_passes
def test_cyclic_matching_is_refused_not_recursed(walk):
    critical, classify, partner = letter_by_letter_matching(3)
    assert partner[(2, 1)] == (3, 2, 1) and partner[(3, 1)] == (2, 3, 1)
    with pytest.raises(InternalInvariantBroken, match="cycle"):
        walk(critical, classify, word_boundary)


@both_passes
def test_matched_incidence_other_than_a_unit_is_refused(walk):
    # e is matched with v although [de : v] = 2; the critical c reaches v.
    cells = {"v": (REDUNDANT, "e"), "e": (COLLAPSIBLE, None), "c": (CRITICAL, None)}
    faces = {"e": {"v": 2}, "c": {"v": 1}, "v": {}}
    with pytest.raises(InternalInvariantBroken, match="incidence"):
        walk([[], ["c"]], cells.__getitem__, faces.__getitem__)


@both_passes
def test_critical_cell_missing_from_the_list_is_refused(walk):
    # v is critical by its class, but the degree-0 list leaves it out.
    cells = {"v": (CRITICAL, None), "c": (CRITICAL, None)}
    faces = {"c": {"v": 1}}
    with pytest.raises(InternalInvariantBroken, match="missing"):
        walk([[], ["c"]], cells.__getitem__, faces.__getitem__)


@both_passes
def test_partner_that_is_not_collapsible_is_refused(walk):
    cells = {"v": (REDUNDANT, "e"), "e": (CRITICAL, None), "c": (CRITICAL, None)}
    faces = {"e": {"v": 1}, "c": {"v": 1}}
    with pytest.raises(InternalInvariantBroken, match="partner"):
        walk([[], ["c"]], cells.__getitem__, faces.__getitem__)


def test_flows_deeper_than_the_recursion_limit():
    # A path v0 - v1 - ... - vN with edges e_i = v_i - v_{i-1}, closed by a
    # critical loop c = vN - v0.  Matching v_i with e_i leaves v0 and c, and
    # the flow from vN walks the whole path.
    n = 10 * sys.getrecursionlimit()

    def classify(cell):
        kind, i = cell
        if cell == ("v", 0) or kind == "c":
            return CRITICAL, None
        return (REDUNDANT, ("e", i)) if kind == "v" else (COLLAPSIBLE, None)

    def boundary(cell):
        kind, i = cell
        if kind == "e":
            return {("v", i): 1, ("v", i - 1): -1}
        if kind == "c":
            return {("v", n): 1, ("v", 0): -1}
        return {}

    rep = morse_complex([[("v", 0)], [("c", 0)]], classify, boundary, complete=True)
    assert rep.dims == (1, 1)
    assert rep.boundary_matrix(1).is_zero()
    assert homology_table(rep) == {0: HomologyGroup(1), 1: HomologyGroup(1)}


@pytest.mark.parametrize("m", range(1, 7))
def test_boundary_dicts_are_read_never_written(m):
    # Every call for a word returns a read-only view of one shared dict.
    shared = {}

    def boundary(word):
        view = shared.get(word)
        if view is None:
            view = shared[word] = MappingProxyType(word_boundary(word))
        return view

    rep = morse_complex(
        [injective_critical_words(m, k) for k in range(m + 1)],
        partial(injective_classify, m),
        boundary,
        complete=True,
    )
    assert rep.boundaries == injective_morse_complex(m).boundaries
