import hashlib
import itertools
import json

import pytest

from wordhom import (
    HomologyGroup,
    InvalidInput,
    PermutationGroup,
    ResourceLimit,
    TruncationError,
    abelianization,
    bar_boundary,
    build_bar_complex,
    build_injective,
    collapsed_bar_complex,
    group_homology,
    homology_table,
    nakaoka_table,
    sym_homology,
)
from wordhom.grouphom import MAX_GROUP_ORDER
from wordhom.morse import injective_morse_complex


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_table_is_a_group(n):
    # identity, inverses and associativity, all through mult
    G = PermutationGroup.symmetric(n)
    assert G.order == __import__("math").factorial(n)
    assert G.elements[0] == tuple(range(n))
    for i in range(G.order):
        assert G.mult(0, i) == i == G.mult(i, 0)
        # each row of the table is a permutation, so i has exactly one inverse
        assert sorted(G.mult(i, j) for j in range(G.order)) == list(range(G.order))
    # associativity on a sample
    import random

    rng = random.Random(n)
    for _ in range(50):
        a, b, c = (rng.randrange(G.order) for _ in range(3))
        assert G.mult(G.mult(a, b), c) == G.mult(a, G.mult(b, c))


def test_group_order_cap_checked_before_enumerating(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search was started")

    monkeypatch.setattr(PermutationGroup, "__init__", no_search)
    for n in (8, 10**9):
        with pytest.raises(ResourceLimit):
            PermutationGroup.symmetric(n)
    with pytest.raises(ResourceLimit):
        PermutationGroup.cyclic(MAX_GROUP_ORDER + 1)


def test_search_stops_at_the_order_cap():
    # A 12-cycle and a transposition generate S_12 (479001600 elements); the
    # search gives up once it would list element MAX_GROUP_ORDER + 1.
    n = 12
    cycle = tuple((i + 1) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    with pytest.raises(ResourceLimit) as info:
        PermutationGroup(n, [cycle, swap])
    assert info.value.context == {"limit": MAX_GROUP_ORDER}


@pytest.mark.parametrize(
    "degree, generators",
    [
        (3, [(0, 1)]),  # too short
        (3, [(0, 1, 1)]),  # a repeated point
        (3, [(1, 2, 3)]),  # a point outside 0..2
        (2, [(1.0, 0)]),  # not integers
        (3, [(0, 1, 2)]),  # the identity
        (3, [(1, 0, 2), (2, 1, 0), (1, 0, 2)]),  # a repeat
        (-1, []),
    ],
)
def test_bad_generators_rejected(degree, generators):
    with pytest.raises(InvalidInput):
        PermutationGroup(degree, generators)


# True == 1 is an int to isinstance, but no size: each entry point checks
# type(x) is int, as Alphabet.letters does.
EXACT_INT_ENTRIES = {
    "PermutationGroup": lambda: PermutationGroup(True, []),
    "symmetric": lambda: PermutationGroup.symmetric(True),
    "cyclic": lambda: PermutationGroup.cyclic(True),
    "injective_morse_complex": lambda: injective_morse_complex(True),
    "build_injective": lambda: build_injective(True),
}


@pytest.mark.parametrize("build", EXACT_INT_ENTRIES.values(), ids=EXACT_INT_ENTRIES.keys())
def test_sizes_must_be_exact_ints(build):
    with pytest.raises(InvalidInput):
        build()


def test_group_keeps_no_multiplication_table():
    G = PermutationGroup.symmetric(4)
    assert not hasattr(G, "table")
    assert G.generators == ((0, 1, 3, 2), (0, 2, 1, 3), (1, 0, 2, 3))
    # S_n's generators are its Coxeter generators in reverse, s_{n-1}..s_1.
    for n in range(1, 8):
        swaps = []
        for i in range(n - 2, -1, -1):
            s = list(range(n))
            s[i], s[i + 1] = i + 1, i
            swaps.append(tuple(s))
        assert PermutationGroup.symmetric(n).generators == tuple(swaps), n


def on_nonzero_vectors(p, a, b, c, d):
    """The permutation of the p^2 - 1 nonzero vectors of F_p^2 made by [[a, b], [c, d]]."""
    vectors = [v for v in itertools.product(range(p), repeat=2) if any(v)]
    index = {v: i for i, v in enumerate(vectors)}
    return tuple(index[(a * x + b * y) % p, (c * x + d * y) % p] for x, y in vectors)


def general_linear(p):
    """GL_2(F_p) acting on the nonzero vectors of F_p^2, on the generators
    the pinned digest records: the group's permutations in sorted order,
    keeping each one that those kept before do not reach."""
    degree = p * p - 1
    generators = []
    reached = {tuple(range(degree))}
    for g in sorted(
        on_nonzero_vectors(p, a, b, c, d)
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p
    ):
        if g not in reached:
            generators.append(g)
            reached = set(PermutationGroup(degree, generators).elements)
    return PermutationGroup(degree, generators, name=f"GL_2(F_{p})")


def test_generators_and_collapsed_complexes_are_pinned():
    # The hash of the generators and the collapsed complexes as they
    # were when the group still built its multiplication table.
    groups = [PermutationGroup.symmetric(3), PermutationGroup.symmetric(4)]
    groups += [PermutationGroup.cyclic(6), general_linear(3)]
    record = [
        {
            "group": G.name,
            "generators": [list(g) for g in G.generators],
            "complex": collapsed_bar_complex(G, 3).to_json(),
        }
        for G in groups
    ]
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == "e8b5b7ced36c499ce3ce7a51c8606fd9e75a19ea41ba6b154727d62e6ace5beb"


def test_homology_of_a_group_that_is_not_symmetric():
    G = general_linear(3)
    assert G.order == 48
    assert group_homology(G, 1) == abelianization(G) == HomologyGroup(0, (2,))


def test_general_linear_group_from_its_natural_generators():
    # Two transvections generate SL_2(F_3), and diag(2, 1) has determinant 2.
    matrices = [(1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1)]
    G = PermutationGroup(8, [on_nonzero_vectors(3, *m) for m in matrices], name="GL_2(F_3)")
    assert G.order == general_linear(3).order == 48
    assert group_homology(G, 1) == group_homology(general_linear(3), 1) == HomologyGroup(0, (2,))


def test_schur_multiplier_of_s7():
    assert group_homology(PermutationGroup.symmetric(7), 2) == HomologyGroup(0, (2,))


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


@pytest.mark.parametrize("cap", [-1, 0])
def test_bar_rejects_a_generator_budget_below_one(cap):
    with pytest.raises(InvalidInput):
        bar_boundary(PermutationGroup.symmetric(3), 1, max_generators=cap)


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
    degrees = (0, 1, 2)
    for n in (2, 3):
        group = PermutationGroup.symmetric(n)
        a, b = (
            homology_table(build_bar_complex(group, 3, normalized=flag), degrees)
            for flag in (True, False)
        )
        for m in degrees:
            assert a[m] == b[m], (n, m)
            assert a[m] == sym_homology(n, m), (n, m)


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


def test_generator_cap_reports_the_degree_not_the_count():
    # 23**5000 has 6809 digits, past what Python turns into a decimal string.
    with pytest.raises(ResourceLimit) as info:
        bar_boundary(PermutationGroup.symmetric(4), 5000)
    assert info.value.context == {"degree": 5000, "limit": 20000}


@pytest.mark.parametrize(
    "group,top",
    [(PermutationGroup.symmetric(2), 4), (PermutationGroup.symmetric(3), 4)]
    + [(PermutationGroup.symmetric(4), 2), (PermutationGroup.symmetric(5), 1)]
    + [(PermutationGroup.cyclic(k), 3) for k in range(2, 7)],
    ids=lambda value: str(getattr(value, "name", value)),
)
def test_collapsing_scheme_agrees_with_the_bar_complex(group, top):
    degrees = range(top + 1)
    bar = homology_table(build_bar_complex(group, top + 1), degrees)
    assert homology_table(collapsed_bar_complex(group, top + 1), degrees) == bar
    if group.name.startswith("S_"):
        n = group.degree
        assert {m: sym_homology(n, m) for m in degrees} == bar


def test_collapsing_scheme_critical_cells():
    # Anick's chains on s_3, s_2, s_1; a cyclic group has one per degree.
    assert collapsed_bar_complex(PermutationGroup.symmetric(4), 3).dims == (1, 3, 7, 18)
    assert collapsed_bar_complex(PermutationGroup.cyclic(5), 4).dims == (1, 1, 1, 1, 1)
    # The counts S_n had on the Coxeter generators s_1..s_{n-1} in their own order.
    recorded = {
        (3, 5): (1, 2, 3, 5, 9, 17),
        (4, 5): (1, 3, 7, 18, 49, 138),
        (5, 4): (1, 4, 13, 45, 162),
        (6, 4): (1, 5, 21, 92, 415),
    }
    for (n, top), dims in recorded.items():
        assert collapsed_bar_complex(PermutationGroup.symmetric(n), top).dims == dims, n


@pytest.mark.parametrize("n", [4, 5, 6])
def test_second_homology_of_symmetric_groups_is_the_schur_multiplier(n):
    assert sym_homology(n, 2) == HomologyGroup(0, (2,))


def test_collapsed_complex_is_truncated():
    scheme = collapsed_bar_complex(PermutationGroup.symmetric(3), 3)
    assert not scheme.complete and scheme.bases is None
    assert scheme.description == {"complex": "bar-morse", "group": "S_3"}
    assert homology_table(scheme)[2] == HomologyGroup(0)
    with pytest.raises(TruncationError):
        homology_table(scheme, [3])


def test_collapsing_scheme_checks_the_critical_cells_per_degree():
    # S_3 has 1 + 2^(k-1) critical cells in degree k >= 1: 9 in degree 4.
    with pytest.raises(ResourceLimit) as info:
        sym_homology(3, 3, max_generators=8)
    assert info.value.context == {"degree": 4, "limit": 8}
    assert sym_homology(3, 3, max_generators=9) == HomologyGroup(0, (6,))
    with pytest.raises(InvalidInput):
        sym_homology(3, 1, max_generators=0)
