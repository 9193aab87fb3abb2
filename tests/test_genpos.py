import itertools
import random

import pytest

from wordhom import (
    Alphabet,
    GeneralPositionRelation,
    InjectiveRelation,
    InvalidInput,
    VectorRelation,
    build_gp,
    check_axioms,
    gp_inj,
    gp_order,
    gp_vec,
)
from wordhom.genpos import _SpanOracle


class SetDisjointOnly(GeneralPositionRelation):
    """Deliberately broken: the pairwise-distinct clause is dropped."""

    set_blocking = True

    def __init__(self, m):
        self.alphabet = Alphabet.letters(m)
        self.name = "broken"

    def gp(self, x, y):
        return not set(x) & set(y)

    def extension_candidates(self):
        return self.alphabet.symbols()


class NoCandidates(SetDisjointOnly):
    def extension_candidates(self):
        return []


class SequenceSearched(SetDisjointOnly):
    set_blocking = False


def test_gp_inj_examples():
    assert gp_inj((1, 2), (3, 4))
    assert not gp_inj((1, 1), ())
    assert not gp_inj((2,), (5, 2))


def test_gp_vec_examples():
    assert gp_vec([(1, 0)], [(0, 1)], p=2)
    assert not gp_vec([(0, 0)], [], p=2)
    assert not gp_vec([(1, 0)], [(2, 0)], p=3)


def test_gp_vec_large_fields_decide_by_row_reduction():
    # Membership is decided by row reduction, never by listing a span, so a
    # large p or dim costs no more than a small one.
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert gp_vec([e1], [e2, e3], p=10007)
    assert not gp_vec([e1], [e2, (5, 7, 0)], p=10007)
    assert not gp_vec([(3, 0, 0)], [(10010, 0, 0)], p=10007)
    basis = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    assert gp_vec(basis[:1], basis[1:], p=13)
    # e1 = (e1 + ... + e6) - e2 - ... - e6 needs six other points, one more
    # than dim - 1; with e6 dropped from the sum it needs five.
    assert gp_vec(basis[:1], basis[1:] + [(1,) * 6], p=13)
    assert not gp_vec(basis[:1], basis[1:] + [(1,) * 5 + (0,)], p=13)


@pytest.mark.parametrize("p", [0, 1, 4, 6, 2.0, True])
def test_gp_vec_rejects_a_modulus_that_is_not_a_prime_int(p):
    with pytest.raises(InvalidInput):
        gp_vec([(1, 0)], [(0, 1)], p=p)


def test_gp_vec_rejects_mixed_dimensions():
    with pytest.raises(InvalidInput):
        gp_vec([(1, 0)], [(1, 0, 0)], p=2)


def test_gp_vec_empty_x_is_vacuous():
    assert gp_vec([], [(0, 0)], p=3, dim=2)


def test_gp_vec_projective_invariance():
    rng = random.Random(4)
    R = VectorRelation(5, 2)
    symbols = [s for s in R.alphabet.symbols() if any(s)]
    for _ in range(200):
        x = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))
        y = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 2)))
        base = R.gp(x, y)
        lam = rng.randint(1, 4)
        i = rng.randrange(len(x))
        scaled = x[:i] + (tuple((lam * a) % 5 for a in x[i]),) + x[i + 1 :]
        assert R.gp(scaled, y) == base
        if y:
            j = rng.randrange(len(y))
            scaled_y = y[:j] + (tuple((lam * a) % 5 for a in y[j]),) + y[j + 1 :]
            assert R.gp(x, scaled_y) == base


def test_dropping_tail_of_y_preserves_gp():
    rng = random.Random(17)
    R = VectorRelation(3, 2)
    symbols = [s for s in R.alphabet.symbols() if any(s)]
    hits = 0
    for _ in range(300):
        x = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 2)))
        y = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))
        if R.gp(x, y):
            hits += 1
            for cut in range(len(y)):
                assert R.gp(x, y[:cut])
    assert hits > 0


@pytest.mark.parametrize(
    "relation,seed",
    [
        (InjectiveRelation(6), 2024),
        (VectorRelation(3, 2), 2024),
        (VectorRelation(2, 3), 2024),
    ],
)
def test_axiom_suite_passes_on_shipped_relations(relation, seed):
    report = check_axioms(relation, trials=1000, seed=seed)
    assert report.passed, [v.axiom for v in report.violations]
    # The biased sampler must actually exercise each hypothesis.
    assert all(hits > 0 for hits in report.hypothesis_hits.values())


def _brute_gp(x, y, p, dim):
    """Independent reference: search every linear relation over the entries
    of x.y with at most dim nonzero coefficients for one that puts a nonzero
    coefficient on an x entry.  The first coefficient is fixed to 1, which
    loses nothing because relations can be rescaled."""
    entries = [tuple(a % p for a in v) for v in (*x, *y)]
    for size in range(1, dim + 1):
        for support in itertools.combinations(range(len(entries)), size):
            if support[0] >= len(x):
                continue
            for rest in itertools.product(range(1, p), repeat=size - 1):
                coeffs = (1,) + rest
                if all(
                    sum(c * entries[i][k] for c, i in zip(coeffs, support)) % p == 0
                    for k in range(dim)
                ):
                    return False
    return True


ORACLE_CASES = [(p, dim) for p in (2, 3, 5, 7) for dim in (1, 2, 3)] + [(2, 4), (11, 3), (13, 4)]


@pytest.mark.parametrize("p,dim", ORACLE_CASES)
def test_vector_relation_matches_brute_force(p, dim):
    rng = random.Random(1000 * p + dim)
    R = VectorRelation(p, dim)
    points = R.projective_points()
    zero = (0,) * dim

    def entry():
        # a scaled, unnormalized representative, or now and then zero
        if rng.random() < 0.1:
            return zero
        lam = rng.randrange(1, p)
        return tuple(lam * a % p for a in rng.choice(points))

    outcomes = set()
    point_gp = R.point_gp()
    for _ in range(120):
        word = [entry() for _ in range(rng.randint(0, 5))]
        if word and rng.random() < 0.3:
            word.insert(rng.randrange(len(word) + 1), rng.choice(word))  # a repeat
        cut = rng.randint(0, len(word))
        x, y = tuple(word[:cut]), tuple(word[cut:])
        expected = _brute_gp(x, y, p, dim)
        outcomes.add(expected)
        assert R.gp(x, y) == expected, (x, y)
        assert point_gp(x, y) == expected, (x, y)
        unreduced = [tuple(a + p * rng.randint(-2, 2) for a in v) for v in x]
        assert gp_vec(unreduced, y, p) == expected, (unreduced, y)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "p,dim", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3), (2, 4), (3, 1)]
)
def test_is_blocking_matches_brute_force(p, dim):
    rng = random.Random(p * dim)
    R = VectorRelation(p, dim)
    points = R.projective_points()
    outcomes = set()
    for _ in range(60):
        k = rng.randint(0, min(len(points), dim + 4))
        word = [tuple(rng.randrange(1, p) * a % p for a in v) for v in rng.sample(points, k)]
        if rng.random() < 0.3:
            word.insert(rng.randrange(len(word) + 1), (0,) * dim)
        word = tuple(word)
        expected = not any(_brute_gp((e,), word, p, dim) for e in points)
        outcomes.add(expected)
        assert R.is_blocking(word) == expected, word
    if dim > 1:
        assert outcomes == {True, False}


@pytest.mark.parametrize("p,dim", [(2, 3), (3, 2), (5, 2), (3, 3), (13, 2)])
def test_span_oracle_index_names_projective_points(p, dim):
    oracle = _SpanOracle(p, dim)
    points = [oracle.point(q) for q in range(1, oracle.size + 1)]
    assert points == sorted(points)
    assert [oracle.index(v) for v in points] == list(range(1, oracle.size + 1))
    for v in itertools.product(range(p), repeat=dim):
        q = oracle.index(v)
        if not any(v):
            assert q == 0
            continue
        assert all(oracle.index([lam * a % p for a in v]) == q for lam in range(1, p)), v
        rep = oracle.point(q)
        assert next(a for a in rep if a) == 1
        assert any(tuple(lam * a % p for a in v) == rep for lam in range(1, p)), (v, rep)


@pytest.mark.parametrize(
    "memoise",
    [
        lambda R: R.gp(((1, 0),), ((0, 1),)),
        lambda R: R.point_gp()(((1, 0),), ((0, 1),)),
        lambda R: R.extension_rule(((1, 0),)),
    ],
    ids=["gp", "point_gp", "extension_rule"],
)
def test_vector_relation_validates_memoised_symbols(memoise):
    R = VectorRelation(3, 2)
    memoise(R)
    assert (1, 0) in R._indices
    # A symbol equal to a memoised one must not skip validation: 1.0 == 1.
    for bad in [(1.0, 0), (True, 0), (3, 0), (1, 0, 0), ([1], 0)]:
        with pytest.raises(InvalidInput):
            R.gp((bad,), ())
        with pytest.raises(InvalidInput):
            R.gp(((0, 1),), (bad,))


def test_axiom_suite_catches_broken_relation():
    report = check_axioms(SetDisjointOnly(6), trials=1000, seed=3)
    assert not report.passed
    assert report.violations
    v = report.violations[0]
    assert v.axiom in ("weaken-left", "weaken-right", "composition", "symmetry")


def test_gp_order_injective_equals_alphabet_size():
    for m in range(3, 8):
        result = gp_order(InjectiveRelation(m))
        assert result.exact and result.value == m
        assert result.witness is not None and len(result.witness) == m


# The lexicographically least blocking sets, as a scan of every combination
# of points in order finds them.
PINNED_WITNESSES = {
    (5, 3): ((0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 0), (1, 1, 3)),
    (7, 3): ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 2), (1, 2, 1)),
    (2, 5): (
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
    ),
}


@pytest.mark.parametrize(
    "p,dim,expected",
    [
        (2, 2, 3),
        (3, 2, 4),
        (5, 2, 6),
        (7, 2, 8),
        (11, 2, 12),
        (13, 2, 14),
        (2, 3, 4),
        (3, 3, 4),
        (2, 4, 5),
        (3, 4, 5),
        (5, 3, 6),
        (7, 3, 6),
        (2, 5, 6),
    ],
)
def test_gp_order_vector_table(p, dim, expected):
    result = gp_order(VectorRelation(p, dim))
    assert result.exact and result.value == expected
    assert result.witness is not None and len(result.witness) == expected
    assert VectorRelation(p, dim).is_blocking(result.witness)
    if (p, dim) in PINNED_WITNESSES:
        assert result.witness == PINNED_WITNESSES[p, dim]


@pytest.mark.parametrize("p,dim", [(2, 1), (3, 1), (2, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_gp_order_vector_search_equals_a_combinations_scan(p, dim):
    R = VectorRelation(p, dim)
    points = R.projective_points()

    def scan(max_n):
        for n in range(max_n + 1):
            for word in itertools.combinations(points, n):
                if R.is_blocking(word):
                    return True, n, word
        return False, max_n + 1, None

    for max_n in range(7):
        result = gp_order(R, max_n)
        assert (result.exact, result.value, result.witness) == scan(max_n), max_n


def test_gp_order_witness_is_minimal():
    R = VectorRelation(3, 2)
    result = gp_order(R)
    # no shorter blocking configuration exists
    import itertools

    points = R.projective_points()
    for n in range(result.value):
        for sub in itertools.combinations(points, n):
            assert not R.is_blocking(sub)


def test_basis_plus_diagonal_blocks_when_field_is_small():
    # With p <= dim, the standard basis together with the all-ones sum admits
    # no further element in general position.
    for p, dim in [(2, 3), (3, 3), (2, 4)]:
        R = VectorRelation(p, dim)
        basis = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
        word = tuple(basis) + ((1,) * dim,)
        assert R.is_blocking(word)


def test_gp_order_empty_universe_rejected():
    with pytest.raises(InvalidInput):
        gp_order(NoCandidates(3))


def test_gp_order_abstract_relation_needs_bound():
    with pytest.raises(InvalidInput):
        gp_order(SequenceSearched(3))


@pytest.mark.parametrize("relation", [VectorRelation(3, 2), SequenceSearched(3)])
def test_gp_order_rejects_negative_bound(relation):
    with pytest.raises(InvalidInput):
        gp_order(relation, max_n=-1)
    # 0 is a bound: only the empty word is searched
    result = gp_order(relation, max_n=0)
    assert not result.exact and result.value == 1


def test_gp_order_sequence_search_matches_set_search():
    # The broken relation still blocks exactly when the set covers everything.
    result = gp_order(SequenceSearched(3), max_n=4)
    assert result.exact and result.value == 3


def test_gp_order_lower_bound_when_no_blocker():
    # dim 1: any nonzero scalar is in general position to everything.
    result = gp_order(VectorRelation(3, 1))
    assert not result.exact
    assert result.value == len(VectorRelation(3, 1).projective_points()) + 1
    assert result.order is None


def test_default_sampler_biases_toward_general_position():
    R = VectorRelation(2, 3)
    report = check_axioms(R, trials=400, seed=0)
    assert report.hypothesis_hits["composition"] >= 40


E1, E2 = (1, 0, 0), (0, 1, 0)


@pytest.mark.parametrize(
    "relation,base,max_degree",
    [
        (VectorRelation(2, 3), (), 3),
        (VectorRelation(2, 3), (E1, E2), 3),
        (VectorRelation(3, 3), (), 3),
        (VectorRelation(3, 3), (E1, E2), 3),
        (VectorRelation(5, 2), (), 3),
        (VectorRelation(5, 2), ((2, 0),), 3),
        (VectorRelation(5, 2), ((2, 0), (0, 3)), 3),
        (VectorRelation(5, 2), ((2, 0), (0, 3), (4, 4)), 3),
        (VectorRelation(2, 4), (), 3),
        (VectorRelation(5, 1), ((3,),), 3),
        (VectorRelation(7, 1), (), 3),
        (InjectiveRelation(5), (2,), None),
    ],
)
def test_extension_rule_equals_whole_word_gp(relation, base, max_degree):
    # The words below max_degree come from whole-word gp alone; the rule is
    # then asked about every word and symbol in the order the enumerator asks.
    symbols = relation.alphabet.symbols()
    levels = [[()]]
    while len(levels) < (max_degree or len(symbols) + 1) and levels[-1]:
        level = [w + (s,) for w in levels[-1] for s in symbols if relation.gp(w + (s,), base)]
        levels.append(level)
    admits = relation.extension_rule(base)
    for level in levels:
        for word in level:
            for s in symbols:
                assert admits(word, s) == relation.gp(word + (s,), base), (word, s)


def test_build_gp_asks_gp_only_about_the_base(monkeypatch):
    calls = []
    gp = VectorRelation.gp

    def counting(self, x, y):
        calls.append((x, y))
        return gp(self, x, y)

    monkeypatch.setattr(VectorRelation, "gp", counting)
    C = build_gp(VectorRelation(3, 3), max_degree=3)
    assert C.dims == (1, 26, 624, 11232)
    # check_base's one call on the base word; no word of the complex is asked.
    assert calls == [((), ())]


def test_forbidden_mask_is_the_union_of_small_spans():
    oracle = _SpanOracle(3, 3)
    points = [3, 3, 0, 7, 11]
    want = 1
    for size in (1, 2):
        for subset in itertools.combinations(sorted({3, 7, 11}), size):
            want |= oracle.span_mask(subset)
    assert oracle.forbidden(points) == want
    assert oracle.extend(oracle.forbidden([3, 11]), (3, 11), 7) == want
    assert oracle.forbidden([]) == 1
    assert _SpanOracle(5, 1).forbidden([1]) == 1


def test_check_axioms_samples_are_pinned():
    R = VectorRelation(5, 3)
    assert check_axioms(R, 200, seed=0).to_json(R.alphabet) == {
        "relation": "vec",
        "trials": 200,
        "seed": 0,
        "passed": True,
        "hypothesis_hits": {
            "composition": 120,
            "symmetry": 200,
            "weaken-left": 120,
            "weaken-right": 132,
        },
        "violations": [],
    }
