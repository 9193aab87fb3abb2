import pytest

from wordhom import (
    HomologyGroup,
    InvalidInput,
    PermutationGroup,
    ResourceLimit,
    abelianization,
    bar_boundary,
    build_bar_complex,
    group_homology,
    nakaoka_table,
    sym_homology,
)


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_table_is_a_group(n):
    # construction verifies closure, identity and inverses
    G = PermutationGroup.symmetric(n)
    assert G.order == __import__("math").factorial(n)
    assert G.elements[0] == tuple(range(n))
    for i in range(G.order):
        assert G.mult(i, G.inverse[i]) == 0
        assert G.mult(0, i) == i == G.mult(i, 0)
    # associativity on a sample
    import random

    rng = random.Random(n)
    for _ in range(50):
        a, b, c = (rng.randrange(G.order) for _ in range(3))
        assert G.mult(G.mult(a, b), c) == G.mult(a, G.mult(b, c))


def test_non_closed_set_rejected():
    with pytest.raises(InvalidInput):
        PermutationGroup([(0, 1, 2), (1, 0, 2)][:1] + [(1, 2, 0)][:1] + [(0, 2, 1)])


def test_bar_boundary_degree_one_is_zero():
    S2 = PermutationGroup.symmetric(2)
    d1 = bar_boundary(S2, 1)
    assert d1.shape == (1, 1)
    assert d1.is_zero()


def test_bar_boundary_trivial_group_is_empty():
    S1 = PermutationGroup.symmetric(1)
    for k in (1, 2, 3):
        d = bar_boundary(S1, k)
        assert d.shape == ((1, 0) if k == 1 else (0, 0))


def test_bar_d_squared_zero():
    for group in (PermutationGroup.symmetric(3), PermutationGroup.cyclic(4)):
        for normalized in (True, False):
            bar = build_bar_complex(group, 3, normalized=normalized)
            for k in range(1, 3):
                assert bar.boundary_matrix(k).mul(bar.boundary_matrix(k + 1)).is_zero()


def test_bar_respects_generator_cap():
    with pytest.raises(ResourceLimit):
        bar_boundary(PermutationGroup.symmetric(4), 4)
    # raising the cap explicitly lifts the gate
    m = bar_boundary(PermutationGroup.symmetric(2), 3, max_generators=10)
    assert m.shape == (1, 1)


def test_homology_of_s2_matches_cyclic_two():
    assert sym_homology(2, 1) == HomologyGroup(0, (2,))
    assert sym_homology(2, 2) == HomologyGroup(0)
    assert sym_homology(2, 3) == HomologyGroup(0, (2,))


def test_first_homology_is_order_two():
    assert sym_homology(2, 1) == HomologyGroup(0, (2,))
    assert sym_homology(3, 1) == HomologyGroup(0, (2,))


def test_degree_zero_homology_is_z():
    for n in (1, 2, 3, 4):
        assert sym_homology(n, 0) == HomologyGroup(1)


def test_second_homology_of_s4_has_order_two_torsion():
    h = sym_homology(4, 2)
    assert h == HomologyGroup(0, (2,))


def test_abelianization_of_symmetric_groups():
    for n in (2, 3, 4, 5):
        assert abelianization(PermutationGroup.symmetric(n)) == HomologyGroup(0, (2,))
    assert abelianization(PermutationGroup.symmetric(1)) == HomologyGroup(0)


def test_abelianization_cyclic_fixture():
    assert abelianization(PermutationGroup.cyclic(4)) == HomologyGroup(0, (4,))
    assert abelianization(PermutationGroup.cyclic(1)) == HomologyGroup(0)


def test_first_homology_matches_abelianization():
    for n in (1, 2, 3, 4):
        bar = sym_homology(n, 1)
        direct = abelianization(PermutationGroup.symmetric(n))
        assert bar == direct, n


def test_normalized_and_unnormalized_agree():
    for n in (2, 3):
        for m in (0, 1, 2):
            a = sym_homology(n, m, normalized=True)
            b = sym_homology(n, m, normalized=False)
            assert a == b, (n, m)


def test_nakaoka_check_in_range_cases():
    r = nakaoka_table(3, 1)[1]
    assert r.in_range and r.equal
    assert r.lhs == HomologyGroup(0, (2,)) == r.rhs

    r = nakaoka_table(4, 1)[1]
    assert r.in_range and r.equal


def test_nakaoka_check_out_of_range_makes_no_claim():
    r = nakaoka_table(2, 1)[1]
    assert not r.in_range
    assert r.holds()  # vacuously


def test_bar_complex_lists_no_basis():
    bar = build_bar_complex(PermutationGroup.symmetric(3), 3)
    assert bar.bases is None
    assert bar.dims == (1, 5, 25, 125)
    assert bar.description == {"complex": "bar", "group": "S_3", "normalized": True}
    bar.verify()
    with pytest.raises(InvalidInput):
        bar.basis(1)


def test_nakaoka_table_shares_complexes():
    rows = nakaoka_table(3, 2)
    assert [r.m for r in rows] == [0, 1, 2]
    assert all(r.holds() for r in rows)


def test_group_homology_of_cyclic_four():
    # H_m(Z/4): Z, Z/4, 0, Z/4
    G = PermutationGroup.cyclic(4)
    assert group_homology(G, 0) == HomologyGroup(1)
    assert group_homology(G, 1) == HomologyGroup(0, (4,))
    assert group_homology(G, 2) == HomologyGroup(0)
    assert group_homology(G, 3) == HomologyGroup(0, (4,))
