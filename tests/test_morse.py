"""The algebraic-Morse kernel and the cone matching on injective words."""

import hashlib
import json
import sys
from itertools import permutations
from math import factorial
from types import MappingProxyType

import pytest

from wordhom import InternalInvariantBroken, InvalidInput, build_injective, homology_table
from wordhom.homology import HomologyGroup
from wordhom.morse import (
    COLLAPSIBLE,
    CRITICAL,
    REDUNDANT,
    injective_classify,
    injective_critical_words,
    injective_morse_complex,
    morse_complex,
    word_boundary,
)


@pytest.mark.parametrize("m", range(1, 8))
def test_morse_table_equals_the_full_snf(m):
    assert homology_table(injective_morse_complex(m)) == homology_table(build_injective(m))


@pytest.mark.parametrize("m", range(1, 8))
def test_critical_counts_are_falling_factorials(m):
    dims = injective_morse_complex(m).dims
    assert dims[:2] == (0, 0)
    assert list(dims[2:]) == [factorial(m) // factorial(m - k + 2) for k in range(2, m + 1)]


@pytest.mark.parametrize("m", range(1, 8))
def test_critical_words_are_the_classified_ones(m):
    for k in range(m + 1):
        classified = [
            w for w in permutations(range(1, m + 1), k) if injective_classify(w)[0] == CRITICAL
        ]
        assert injective_critical_words(m, k) == classified, k


def test_library_cap():
    for m in (0, 10, "3"):
        with pytest.raises(InvalidInput):
            injective_morse_complex(m)


def _letter_by_letter(m):
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


def test_cyclic_matching_is_refused_not_recursed():
    critical, classify, partner = _letter_by_letter(3)
    assert partner[(2, 1)] == (3, 2, 1) and partner[(3, 1)] == (2, 3, 1)
    with pytest.raises(InternalInvariantBroken, match="cycle"):
        morse_complex(critical, classify, word_boundary, complete=True)


def test_matched_incidence_other_than_a_unit_is_refused():
    # e is matched with v although [de : v] = 2; the critical c reaches v.
    cells = {"v": (REDUNDANT, "e"), "e": (COLLAPSIBLE, None), "c": (CRITICAL, None)}
    faces = {"e": {"v": 2}, "c": {"v": 1}, "v": {}}
    with pytest.raises(InternalInvariantBroken, match="incidence"):
        morse_complex([[], ["c"]], cells.__getitem__, faces.__getitem__, complete=True)


def test_critical_cell_missing_from_the_list_is_refused():
    # v is critical by its class, but the degree-0 list leaves it out.
    cells = {"v": (CRITICAL, None), "c": (CRITICAL, None)}
    faces = {"c": {"v": 1}}
    with pytest.raises(InternalInvariantBroken, match="missing"):
        morse_complex([[], ["c"]], cells.__getitem__, faces.__getitem__, complete=True)


def test_partner_that_is_not_collapsible_is_refused():
    cells = {"v": (REDUNDANT, "e"), "e": (CRITICAL, None), "c": (CRITICAL, None)}
    faces = {"e": {"v": 1}, "c": {"v": 1}}
    with pytest.raises(InternalInvariantBroken, match="partner"):
        morse_complex([[], ["c"]], cells.__getitem__, faces.__getitem__, complete=True)


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
        injective_classify,
        boundary,
        complete=True,
    )
    assert rep.boundaries == injective_morse_complex(m).boundaries


def test_injective_morse_matrices_are_pinned():
    """Each degree's matrix of m = 2..7, as sorted coordinates."""
    digest = hashlib.sha256()
    for m in range(2, 8):
        rep = injective_morse_complex(m)
        matrices = [rep.boundary_matrix(k).to_coordinates() for k in range(1, len(rep.dims))]
        digest.update(json.dumps([m, rep.dims, matrices]).encode())
    assert digest.hexdigest() == (
        "fc2e03cd333d4ff45b1e978fecf2729f0ed659d100b6a8ad7ef2155a1deec082"
    )
