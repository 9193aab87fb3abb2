import random

import pytest

from wordhom import (
    InvalidInput,
    PermutationGroup,
    SparseIntMatrix,
    bar_boundary,
    build_bar_complex,
    build_injective,
    rank,
    rank_mod_p,
    smith_normal_form,
)
from conftest import naive_smith_normal_form


@pytest.fixture(scope="module")
def complex_boundaries():
    """Boundary matrices with unit pivots (injective words, m=5) and with
    non-unit pivots (bar complex of S_3 to degree 4: Z/2 and Z/6 torsion)."""
    inj = build_injective(5)
    bar = build_bar_complex(PermutationGroup.symmetric(3), 4)
    return {
        **{f"inj5-d{k}": inj.boundary_matrix(k) for k in range(1, 6)},
        **{f"bar-S3-d{k}": bar.boundary_matrix(k) for k in range(1, 5)},
    }


@pytest.mark.parametrize(
    "dense, factors",
    [
        ([[2, 4], [6, 8]], [2, 4]),
        # 6 divides neither 10 nor 15: the row is reduced to (6, 4, 3), then
        # to (0, 1, 3), before its pivot divides it.
        ([[6, 10, 15]], [1]),
        ([[2, 3]], [1]),
        ([[4, 6], [6, 9]], [1]),
    ],
    ids=["2-4-6-8", "6-10-15", "2-3", "4-6-6-9"],
)
def test_snf_hand_checked_example(dense, factors):
    assert smith_normal_form(SparseIntMatrix.from_dense(dense)) == factors


def test_snf_zero_matrix():
    assert smith_normal_form(SparseIntMatrix.zero(3, 4)) == []


def test_snf_identity():
    assert smith_normal_form(SparseIntMatrix.identity(3)) == [1, 1, 1]


def test_snf_matches_naive_oracle_on_random_matrices():
    rng = random.Random(42)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        expected = naive_smith_normal_form(dense)
        got = smith_normal_form(SparseIntMatrix.from_dense(dense))
        assert got == expected, dense


def test_snf_matches_naive_oracle_on_random_pivot_mixes():
    # Entries in -2..3 give pivots of 1, 2 and 3 within one matrix, so single
    # pivots run the reduction of the pivot column modulo the pivot, the move
    # of the pivot to the row with the least remainder, the reduction of the
    # pivot row modulo its pivot and the one-step delete of a settled non-unit
    # pivot row.
    rng = random.Random(2001)
    for _ in range(200):
        rows = rng.randint(1, 15)
        cols = rng.randint(1, 15)
        dense = [[rng.randint(-2, 3) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(SparseIntMatrix.from_dense(dense)) == naive_smith_normal_form(
            dense
        ), dense


def test_snf_of_wide_s5_bar_differential():
    # The wide 119x14161 normalized bar d2 of S_5: H_1(S_5) = Z/2.
    m = bar_boundary(PermutationGroup.symmetric(5), 2)
    assert m.shape == (119, 14161)
    assert smith_normal_form(m) == [1] * 118 + [2]


def _random_sparse(seed, count):
    """count sparse matrices up to 50x50 with entries in -9..9."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 50)
        cols = rng.randint(1, 50)
        entries = {}
        for _ in range(rng.randint(0, 3 * max(rows, cols))):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.randint(-9, 9)
        yield SparseIntMatrix(rows, cols, entries)


@pytest.mark.parametrize("seed, count", [(9, 30), (2, 150), (123, 150)])
def test_snf_divisibility_chain_on_random_sparse(seed, count):
    for m in _random_sparse(seed, count):
        factors = smith_normal_form(m)
        assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
        assert all(f >= 1 for f in factors)


def test_snf_matches_naive_oracle_on_former_growth_cases():
    # Clearing the pivot column with extended-gcd row pairs took these three
    # past a million bits and minutes; one Euclidean step per row stays small.
    hard = {123: (52, 56), 2: (87,)}
    for seed, picks in hard.items():
        for n, m in enumerate(_random_sparse(seed, max(picks) + 1)):
            if n in picks:
                assert smith_normal_form(m) == naive_smith_normal_form(m.to_dense()), (seed, n)


def test_snf_invariant_under_permutations():
    rng = random.Random(31)
    for _ in range(25):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        entries = {}
        for _ in range(rng.randint(0, 2 * max(rows, cols))):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.randint(-20, 20)
        m = SparseIntMatrix(rows, cols, entries)
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        assert smith_normal_form(m) == smith_normal_form(m.permuted(rp, cp))


def test_rank_consistent_with_mod_p_ranks():
    rng = random.Random(88)
    for _ in range(20):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        entries = {}
        for _ in range(rng.randint(0, 2 * max(rows, cols))):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.randint(-5, 5)
        m = SparseIntMatrix(rows, cols, entries)
        factors = smith_normal_form(m)
        for p in (101, 103, 107):
            if all(f % p for f in factors):
                assert rank_mod_p(m, p) == len(factors)


def test_rank_of_known_matrix():
    m = SparseIntMatrix.from_dense([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert rank(m) == 2


@pytest.mark.parametrize("p", [4, 6, 1, 0, 2.0, True])
def test_rank_mod_p_rejects_a_modulus_that_is_not_a_prime_int(p):
    # Checked before any elimination: over Z/4 this matrix used to loop forever,
    # because 2 has no inverse mod 4.
    with pytest.raises(InvalidInput):
        rank_mod_p(SparseIntMatrix.from_dense([[2], [2]]), p)


def test_mul_and_transpose():
    a = SparseIntMatrix.from_dense([[1, 2], [0, 1]])
    b = SparseIntMatrix.from_dense([[1, 0], [3, 1]])
    assert a.mul(b).to_dense() == [[7, 2], [3, 1]]
    assert a.transpose().to_dense() == [[1, 0], [2, 1]]


def test_matrix_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, {(2, 0): 1})


def test_matrix_takes_entries_only_as_a_dict():
    with pytest.raises(TypeError):
        SparseIntMatrix(2, 2, [(0, 0, 1)])


def test_permuted_rejects_a_map_that_is_not_a_permutation():
    m = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.permuted([0, 0], [0, 1])
    with pytest.raises(ValueError):
        m.permuted([0, 1], [1, 2])
    assert m.permuted([1, 0], [0, 1]).to_dense() == [[3, 4], [1, 2]]


def test_snf_with_large_entries_stays_exact():
    big = 10**30
    m = SparseIntMatrix.from_dense([[big, big + 1], [1, 2]])
    factors = smith_normal_form(m)
    assert factors[0] == 1
    # determinant up to sign is the product of the invariant factors
    assert factors[0] * factors[1] == abs(big * 2 - (big + 1))


def test_snf_agrees_with_mod_p_ranks_on_complex_boundaries(complex_boundaries):
    torsion = set()
    for name, m in complex_boundaries.items():
        factors = smith_normal_form(m)
        torsion.update(d for d in factors if d > 1)
        for p in (2, 3, 5, 7):
            assert rank_mod_p(m, p) == sum(1 for d in factors if d % p), (name, p)
    assert torsion == {2, 6}


def test_snf_matches_naive_oracle_on_complex_boundaries(complex_boundaries):
    for name, m in complex_boundaries.items():
        assert smith_normal_form(m) == naive_smith_normal_form(m.to_dense()), name


def test_snf_invariant_under_permutations_of_torsion_bar_matrix(complex_boundaries):
    m = complex_boundaries["bar-S3-d4"]
    factors = smith_normal_form(m)
    assert factors[-1] == 6
    rng = random.Random(2001)
    for _ in range(4):
        rp = list(range(m.rows))
        cp = list(range(m.cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        assert smith_normal_form(m.permuted(rp, cp)) == factors
