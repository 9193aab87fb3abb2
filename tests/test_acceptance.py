"""End-to-end acceptance suite.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
all) and enforces its stated time budget.  Expected values come from
independent oracles: inclusion-exclusion for derangements, the alternating
closed form cross-check, blocking-set searches for relation orders, and
re-application of the boundary operator for every filling certificate.
"""

import contextlib
import functools
import io
import json
import random
import time

from wordhom import (
    Alphabet,
    Chain,
    HomologyGroup,
    InjectiveRelation,
    SparseIntMatrix,
    VectorRelation,
    build_full,
    build_gp,
    build_injective,
    check_axioms,
    derangement_count,
    fill_gp,
    fill_injective,
    gp_order,
    homology_table,
    nakaoka_table,
    rank_formula,
    smith_normal_form,
    sym_homology,
)
from wordhom.cli import run
from conftest import random_gp_chain, random_letter_chain


def criterion(name, budget_s):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"[FAIL] {name} ({elapsed:.1f}s)")
                raise
            elapsed = time.perf_counter() - start
            ok = elapsed <= budget_s
            print(
                f"[{'PASS' if ok else 'FAIL'}] {name}"
                f" ({elapsed:.1f}s, budget {budget_s:.0f}s)"
            )
            assert ok, f"{name} exceeded its {budget_s}s budget"

        return wrapper

    return decorate


@criterion("injective-word homology concentrated in the top degree (m=2..6)", 60)
def test_criterion_injective_homology_table():
    expected_ranks = {2: 1, 3: 2, 4: 9, 5: 44, 6: 265}
    for m in range(2, 7):
        table = homology_table(build_injective(m))
        for k in range(m):
            assert table[k].is_trivial(), f"H_{k} of the m={m} complex is {table[k]}"
        want = expected_ranks[m]
        assert want == derangement_count(m) == rank_formula(m)
        assert table[m] == HomologyGroup(want), f"H_{m} = {table[m]}"


@criterion("wordhom homology inj --m 7: trivial below the top, Z^1854 there", 30)
def test_criterion_injective_homology_m7_cli():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["homology", "inj", "--m", "7", "--format", "json"])
    assert code == 0
    groups = {g["degree"]: g for g in json.loads(out.getvalue())["groups"]}
    assert sorted(groups) == list(range(8))
    for k in range(7):
        assert groups[k] == {"degree": k, "free_rank": 0, "torsion": []}, groups[k]
    assert 1854 == derangement_count(7) == rank_formula(7)
    assert groups[7] == {"degree": 7, "free_rank": 1854, "torsion": []}


@criterion("full word complex is acyclic (alphabets up to 3 letters)", 30)
def test_criterion_full_complex_acyclic():
    for m in (1, 2, 3):
        table = homology_table(build_full(m, 5), range(1, 5))
        for k in range(1, 5):
            assert table[k].is_trivial(), f"H_{k} of the full m={m} complex is {table[k]}"


@criterion("relation order table over prime fields and letters", 120)
def test_criterion_relation_orders():
    for p, d, expected in [(2, 2, 3), (3, 2, 4), (5, 2, 6), (2, 3, 4), (3, 3, 4), (2, 4, 5)]:
        result = gp_order(VectorRelation(p, d))
        assert result.exact and result.value == expected, (p, d, result)
    for m in range(3, 8):
        result = gp_order(InjectiveRelation(m))
        assert result.exact and result.value == m


@criterion("general-position homology vanishes through the degree bound", 300)
def test_criterion_gp_vanishing():
    for p, d in [(3, 2), (5, 2), (2, 3)]:
        relation = VectorRelation(p, d)
        order = gp_order(relation).order
        e1 = tuple(1 if i == 0 else 0 for i in range(d))
        e2 = tuple(1 if i == 1 else 0 for i in range(d))
        for base in [(), (e1,), (e1, e2)]:
            assert relation.gp(base, ())
            bound = (order - len(base) - 1) // 2
            complex_rep = build_gp(relation, base, max_degree=bound + 1)
            table = homology_table(complex_rep, range(0, bound + 1))
            for k in range(0, bound + 1):
                assert table[k].is_trivial(), (
                    f"H_{k} over F_{p}^{d} with base length {len(base)} is {table[k]}"
                )


@criterion("filling certificates validate on random boundary cycles", 120)
def test_criterion_fill_certificates():
    rng = random.Random(424242)
    for m in range(2, 7):
        alphabet = Alphabet.letters(m)
        letters = list(range(1, m + 1))
        for n in range(1, m):
            for _ in range(100):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    word = tuple(rng.sample(letters, n + 1))
                    coeff = rng.randint(-4, 4)
                    if coeff:
                        terms[word] = coeff
                cycle = Chain(alphabet, n + 1, terms).boundary()
                cert = fill_injective(cycle)
                assert cert.filling.boundary() == cycle

    relation = VectorRelation(5, 2)
    order = gp_order(relation).order
    for l, n in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1)]:
        base = ((1, 0), (0, 1))[:l]
        assert 2 * n + l + 1 <= order
        for _ in range(100):
            cycle = random_gp_chain(rng, relation, base, n + 1).boundary()
            cert = fill_gp(cycle, relation, base, order_value=order)
            assert cert.filling.boundary() == cycle


@criterion("axiom suite holds on 1000 seeded triples per instance", 120)
def test_criterion_axiom_suite():
    for relation in (InjectiveRelation(6), VectorRelation(3, 2), VectorRelation(2, 3)):
        report = check_axioms(relation, trials=1000, seed=20240814)
        assert report.passed, [v.axiom for v in report.violations]
        assert all(hits > 0 for hits in report.hypothesis_hits.values())


@criterion("symmetric-group stability at desk scale", 600)
def test_criterion_symmetric_group_stability():
    z2 = HomologyGroup(0, (2,))
    assert sym_homology(2, 1) == z2
    assert sym_homology(3, 1) == z2

    report = nakaoka_table(4, 1)[1]
    assert report.in_range and report.equal

    h2 = sym_homology(4, 2)
    assert h2 == z2, f"H_2 of S_4 came out as {h2}"

    for m in (0, 1, 2):
        normalized = sym_homology(3, m, normalized=True)
        unnormalized = sym_homology(3, m, normalized=False)
        assert normalized == unnormalized, (m, normalized, unnormalized)


@criterion("property suite: d^2, Leibniz, normal form, builder agreement", 300)
def test_criterion_property_suite():
    rng = random.Random(31337)

    for _ in range(10_000):
        m = rng.randint(1, 6)
        chain = random_letter_chain(rng, m, rng.randint(0, 5))
        assert chain.boundary().boundary().is_zero()

    for _ in range(1000):
        m = rng.randint(1, 5)
        n = rng.randint(0, 3)
        c = random_letter_chain(rng, m, n)
        c2 = random_letter_chain(rng, m, rng.randint(0, 3))
        left = c.product(c2).boundary()
        right = c.boundary().product(c2) + ((-1) ** n) * c.product(c2.boundary())
        assert left == right

    for _ in range(20):
        rows = rng.randint(1, 50)
        cols = rng.randint(1, 50)
        entries = {}
        for _ in range(rng.randint(0, 2 * max(rows, cols))):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.randint(-9, 9)
        matrix = SparseIntMatrix(rows, cols, entries)
        factors = smith_normal_form(matrix)
        assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        assert smith_normal_form(matrix.permuted(rp, cp)) == factors

    for m in range(2, 7):
        direct = build_injective(m)
        via_gp = build_gp(InjectiveRelation(m))
        assert direct.bases == via_gp.bases
        assert direct.boundaries == via_gp.boundaries
