import itertools

import pytest

from wordhom import (
    Alphabet,
    ChainComplexRep,
    InjectiveRelation,
    InternalInvariantBroken,
    InvalidInput,
    PreconditionViolated,
    ResourceLimit,
    SparseIntMatrix,
    VectorRelation,
    build_full,
    build_gp,
    build_injective,
)


def test_injective_basis_sizes_m2():
    C = build_injective(2)
    assert [C.dim(k) for k in range(C.top_degree + 1)] == [1, 2, 2]
    assert C.complete


def test_injective_basis_sizes_m3():
    C = build_injective(3)
    assert [C.dim(k) for k in range(C.top_degree + 1)] == [1, 3, 6, 6]


def test_injective_matrices_m2():
    C = build_injective(2)
    assert C.basis(1) == ((1,), (2,))
    assert C.boundary_matrix(1).to_dense() == [[1, 1]]
    # columns are d(1,2) = (2)-(1) and d(2,1) = (1)-(2)
    assert C.basis(2) == ((1, 2), (2, 1))
    assert C.boundary_matrix(2).to_dense() == [[-1, 1], [1, -1]]


def test_injective_rejects_out_of_range():
    with pytest.raises(InvalidInput):
        build_injective(0)
    with pytest.raises(InvalidInput):
        build_injective(9)


def test_injective_d_squared_zero():
    for m in range(2, 6):
        C = build_injective(m)
        for k in range(1, C.top_degree):
            assert C.boundary_matrix(k).mul(C.boundary_matrix(k + 1)).is_zero()


def test_injective_counts_match_falling_factorials():
    import math

    for m in range(1, 7):
        C = build_injective(m)
        for k in range(m + 1):
            assert C.dim(k) == math.factorial(m) // math.factorial(m - k)


def test_full_basis_sizes():
    C = build_full(2, 3)
    assert [C.dim(k) for k in range(4)] == [1, 2, 4, 8]
    assert not C.complete


def test_full_single_letter_matrices_alternate():
    C = build_full(1, 4)
    dense = [C.boundary_matrix(k).to_dense() for k in range(1, 5)]
    assert dense == [[[1]], [[0]], [[1]], [[0]]]


def test_full_d_squared_zero():
    for m in (2, 3):
        C = build_full(m, 4)
        for k in range(1, C.top_degree):
            assert C.boundary_matrix(k).mul(C.boundary_matrix(k + 1)).is_zero()


def test_full_respects_basis_budget():
    # 1 + 4 + 16 + 64 + 256 = 341 words fit in 1000; degree 5 is the first past it
    with pytest.raises(ResourceLimit) as info:
        build_full(4, 10, max_basis=1000)
    assert info.value.context == {"degree": 5, "limit": 1000}


def test_bases_follow_itertools_order():
    # every matrix's row and column order is this order
    for m in range(1, 6):
        letters = range(1, m + 1)
        expected = tuple(tuple(itertools.permutations(letters, k)) for k in range(m + 1))
        assert build_injective(m).bases == expected
    expected = tuple(tuple(itertools.product(range(1, 4), repeat=k)) for k in range(5))
    assert build_full(3, 4).bases == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_full(2, 2, -1),
        lambda: build_full(2, 2, 0),
        lambda: build_full(2, -1),
        lambda: build_gp(VectorRelation(3, 2), max_basis=0),
        lambda: build_gp(VectorRelation(3, 2), max_basis=-1),
        lambda: build_gp(VectorRelation(3, 2), max_degree=-1),
    ],
    ids=[
        "full-budget-neg",
        "full-budget-zero",
        "full-degree-neg",
        "gp-budget-zero",
        "gp-budget-neg",
        "gp-degree-neg",
    ],
)
def test_budget_below_one_or_negative_degree_is_invalid(build):
    with pytest.raises(InvalidInput):
        build()


class CountingVectorRelation(VectorRelation):
    def __init__(self, p, dim):
        super().__init__(p, dim)
        self.calls = 0

    def gp(self, x, y):
        self.calls += 1
        return super().gp(x, y)


def test_basis_budget_is_checked_at_every_word():
    # degree 2 of F_5^3 has 124 * 120 words; building all of it takes 15,626 gp calls
    R = CountingVectorRelation(5, 3)
    with pytest.raises(ResourceLimit) as info:
        build_gp(R, max_basis=1000)
    assert info.value.context == {"degree": 2, "limit": 1000}
    assert R.calls < 2000


def test_gp_injective_relation_reproduces_injective_complex():
    for m in range(2, 6):
        direct = build_injective(m)
        via_gp = build_gp(InjectiveRelation(m))
        assert via_gp.complete
        assert direct.bases == via_gp.bases
        assert direct.boundaries == via_gp.boundaries


def test_gp_vector_small_field_sizes():
    C = build_gp(VectorRelation(2, 2))
    assert C.dim(1) == 3  # the nonzero vectors of F_2^2
    assert C.dim(2) == 6  # ordered pairs of distinct projective points
    assert C.complete


def test_gp_base_point_excluded():
    R = VectorRelation(3, 2)
    C = build_gp(R, base=((1, 0),), max_degree=2)
    forbidden = {(1, 0), (2, 0)}
    for k in range(C.top_degree + 1):
        for word in C.basis(k):
            assert not forbidden & set(word)


def test_gp_rejects_base_not_in_general_position():
    with pytest.raises(PreconditionViolated):
        build_gp(VectorRelation(5, 2), base=((1, 0), (2, 0)))


def test_gp_enumeration_matches_brute_force():
    # prefix pruning must agree with filtering all words outright
    for m, D in [(2, 2), (3, 3)]:
        R = InjectiveRelation(m)
        C = build_gp(R, max_degree=D)
        letters = range(1, m + 1)
        for k in range(min(D, C.top_degree) + 1):
            brute = [
                w for w in itertools.product(letters, repeat=k) if R.gp(w, ())
            ]
            assert list(C.basis(k)) == brute
    R = VectorRelation(2, 2)
    C = build_gp(R, base=((1, 1),), max_degree=3)
    symbols = R.alphabet.symbols()
    for k in range(C.top_degree + 1):
        brute = [
            w
            for w in itertools.product(symbols, repeat=k)
            if R.gp(w, ((1, 1),))
        ]
        assert list(C.basis(k)) == brute


def test_gp_auto_mode_terminates_for_bounded_relations():
    C = build_gp(VectorRelation(3, 2))
    assert C.complete
    # word length caps at the number of projective points
    assert C.top_degree == len(VectorRelation(3, 2).projective_points())


def test_gp_unbounded_growth_hits_resource_limit():
    # dim 1 imposes no internal constraint beyond nonzero entries
    with pytest.raises(ResourceLimit):
        build_gp(VectorRelation(2, 1), max_basis=50)


def test_gp_faces_stay_in_basis():
    R = VectorRelation(2, 3)
    C = build_gp(R, base=((1, 0, 0),), max_degree=2)
    for k in range(1, C.top_degree + 1):
        lower = set(C.basis(k - 1))
        for word in C.basis(k):
            for pos in range(len(word)):
                assert word[:pos] + word[pos + 1 :] in lower


def test_verify_passes_on_fresh_complexes():
    build_injective(3).verify()
    build_full(2, 3).verify()
    build_gp(VectorRelation(2, 2)).verify()


def test_verify_passes_on_larger_complexes():
    build_injective(5).verify()
    build_full(3, 4).verify()
    build_gp(VectorRelation(5, 2), ((1, 0),)).verify()


def test_construction_rejects_nonzero_square():
    one = SparseIntMatrix(1, 1, {(0, 0): 1})
    with pytest.raises(InternalInvariantBroken):
        ChainComplexRep(dims=(1, 1, 1), boundaries=(one, one), complete=True)


def test_verify_rejects_an_altered_column():
    # Negating a column of the top matrix keeps d^2 = 0, so only the column
    # check can see it.
    C = build_injective(3)
    top = C.boundary_matrix(3)
    negated = SparseIntMatrix(
        top.rows, top.cols, {(r, c): -v if c == 2 else v for (r, c), v in top.items()}
    )
    altered = ChainComplexRep(
        dims=C.dims,
        boundaries=C.boundaries[:-1] + (negated,),
        complete=C.complete,
        alphabet=C.alphabet,
        bases=C.bases,
        description=C.description,
    )
    with pytest.raises(InternalInvariantBroken) as info:
        altered.verify()
    assert info.value.context == {"degree": 3, "column": 2}


def test_complex_json_dump_shape():
    C = build_injective(2)
    dump = C.to_json()
    assert dump["alphabet"] == {"kind": "letters", "m": 2}
    assert dump["complete"] is True
    assert dump["bases"][1] == [[1], [2]]
    assert dump["boundaries"][0]["rows"] == 1
    entries = dump["boundaries"][0]["entries"]
    assert entries == [[0, 0, 1], [0, 1, 1]]
