import pytest

from wordhom import (
    HomologyGroup,
    InvalidInput,
    TruncationError,
    build_full,
    build_injective,
    derangement_count,
    homology_table,
    rank_formula,
)


def test_homology_group_canonical_form():
    g = HomologyGroup(2, (2, 4))
    assert str(g) == "Z^2 ⊕ Z/2 ⊕ Z/4"
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(0, (2,))) == "Z/2"


def test_homology_group_rejects_broken_chain():
    with pytest.raises(InvalidInput):
        HomologyGroup(0, (4, 2))
    with pytest.raises(InvalidInput):
        HomologyGroup(0, (1,))
    with pytest.raises(InvalidInput):
        HomologyGroup(-1)


def test_injective_homology_vanishes_below_top():
    C = build_injective(3)
    assert homology_table(C, [1])[1].is_trivial()
    assert homology_table(C, [0])[0].is_trivial()
    assert homology_table(C, [2])[2].is_trivial()


def test_injective_homology_top_degree_m3():
    # two independent counts: the closed form and fixed-point-free permutations
    C = build_injective(3)
    top = homology_table(C, [3])[3]
    assert top == HomologyGroup(2)
    assert derangement_count(3) == 2


def test_injective_homology_top_degree_m2():
    # the kernel of d_2 is spanned by (1,2)+(2,1)
    from wordhom import Alphabet, Chain

    A = Alphabet.letters(2)
    spanning_cycle = Chain.term(A, (1, 2)) + Chain.term(A, (2, 1))
    assert spanning_cycle.boundary().is_zero()
    C = build_injective(2)
    assert homology_table(C, [2])[2] == HomologyGroup(1)


def test_injective_homology_above_top_is_trivial():
    C = build_injective(2)
    assert homology_table(C, [5])[5].is_trivial()


@pytest.mark.parametrize("m", range(2, 7))
def test_injective_homology_concentrated_in_top_degree(m):
    C = build_injective(m)
    table = homology_table(C)
    for k in range(m):
        assert table[k].is_trivial(), f"H_{k} nontrivial for m={m}"
    assert table[m] == HomologyGroup(derangement_count(m))


def test_full_complex_acyclic():
    for m in (1, 2, 3):
        C = build_full(m, 5)
        table = homology_table(C, range(1, 5))
        assert all(table[k].is_trivial() for k in range(1, 5))


def test_truncated_complex_refuses_unreliable_degree():
    C = build_full(2, 3)
    with pytest.raises(TruncationError):
        homology_table(C, [3])
    with pytest.raises(TruncationError):
        homology_table(C, [7])
    homology_table(C, [2])[2]  # within the reliable range


def test_homology_rejects_negative_degree():
    with pytest.raises(InvalidInput):
        homology_table(build_injective(2), [-1])


def test_derangement_count_small_values():
    assert [derangement_count(m) for m in range(7)] == [1, 0, 1, 2, 9, 44, 265]


def test_rank_formula_agrees_with_derangements():
    for m in range(11):
        assert rank_formula(m) == derangement_count(m)


def test_boundary_matrix_rank_consistent_mod_p():
    from wordhom import rank_mod_p, smith_normal_form

    d3 = build_injective(4).boundary_matrix(3)
    factors = smith_normal_form(d3)
    for p in (101, 103, 107):
        assert all(f % p for f in factors)
        assert rank_mod_p(d3, p) == len(factors)
