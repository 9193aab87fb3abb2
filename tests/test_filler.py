import random

import pytest

from wordhom import (
    Alphabet,
    Chain,
    GeneralPositionExhausted,
    InjectiveRelation,
    InvalidInput,
    NotACycle,
    OutOfRange,
    PreconditionViolated,
    VectorRelation,
    fill_absent,
    fill_gp,
    fill_injective,
    gp_order,
    homology_table,
    i_invariant,
)
from conftest import random_gp_chain

A5 = Alphabet.letters(5)


def term(word, coeff=1, alphabet=A5):
    return Chain.term(alphabet, word, coeff)


# -- fill_absent ---------------------------------------------------------------

def test_fill_absent_cone():
    c = term((2,)) - term((3,))
    cert = fill_absent(c, 1)
    assert cert.filling == term((1, 2)) - term((1, 3))
    assert cert.check()


def test_fill_absent_zero_cycle():
    cert = fill_absent(Chain.zero(A5, 2), 1)
    assert cert.filling.is_zero()


def test_fill_absent_rejects_appearing_symbol():
    with pytest.raises(PreconditionViolated):
        fill_absent(term((1,)), 1)


def test_fill_absent_rejects_non_cycle():
    with pytest.raises(NotACycle):
        fill_absent(term((2,)), 1)


# -- fill_injective --------------------------------------------------------------

def test_fill_injective_base_case():
    A2 = Alphabet.letters(2)
    c = Chain.term(A2, (1,)) - Chain.term(A2, (2,))
    cert = fill_injective(c)
    assert cert.filling.boundary() == c


def test_fill_injective_boundary_of_top_word():
    A3 = Alphabet.letters(3)
    c = Chain.term(A3, (1, 2, 3)).boundary()
    cert = fill_injective(c)
    assert cert.filling.boundary() == c
    assert cert.steps


def test_fill_injective_degree_zero():
    c = Chain.term(A5, (), 4)
    cert = fill_injective(c)
    assert cert.filling.boundary() == c


def test_fill_injective_zero_chain():
    cert = fill_injective(Chain.zero(A5, 2))
    assert cert.filling.is_zero()


def test_fill_injective_rejects_top_degree():
    A2 = Alphabet.letters(2)
    cycle = Chain.term(A2, (1, 2)) + Chain.term(A2, (2, 1))
    assert cycle.boundary().is_zero()
    with pytest.raises(OutOfRange):
        fill_injective(cycle)


def test_fill_injective_rejects_non_cycle():
    with pytest.raises(NotACycle):
        fill_injective(term((1, 2)))


def test_fill_injective_rejects_repeated_letters():
    with pytest.raises(InvalidInput):
        fill_injective(term((1, 1)))


def test_fill_injective_random_boundaries():
    rng = random.Random(2029)
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


# -- the prefix invariant -----------------------------------------------------------

def test_i_invariant_examples():
    R = InjectiveRelation(6)
    A = R.alphabet
    assert i_invariant(Chain.term(A, (2, 3)), 1, (), R) == 2
    assert i_invariant(Chain.term(A, (1, 2)), 1, (), R) == 0
    assert i_invariant(Chain.term(A, (2, 1)), 1, (), R) == 1


def test_i_invariant_minimum_over_terms():
    R = InjectiveRelation(6)
    A = R.alphabet
    c = Chain.term(A, (2, 3)) + Chain.term(A, (2, 1))
    assert i_invariant(c, 1, (), R) == 1


def test_i_invariant_with_base_word():
    R = InjectiveRelation(6)
    A = R.alphabet
    # term contains a base letter, so even the length-1 prefix fails
    assert i_invariant(Chain.term(A, (4, 2)), 1, (4,), R) == 0


# -- fill_gp --------------------------------------------------------------------

def test_fill_gp_degree_one_distinct_points():
    R = VectorRelation(3, 2)
    A = R.alphabet
    c = Chain.term(A, ((1, 0),)) - Chain.term(A, ((0, 1),))
    cert = fill_gp(c, R)
    assert cert.filling.boundary() == c


def test_fill_gp_zero_chain():
    R = VectorRelation(3, 2)
    cert = fill_gp(Chain.zero(R.alphabet, 2), R)
    assert cert.filling.is_zero()


def test_fill_gp_respects_base_membership():
    R = VectorRelation(5, 2)
    base = ((1, 0),)
    rng = random.Random(11)
    cycle = random_gp_chain(rng, R, base, 2).boundary()
    cert = fill_gp(cycle, R, base)
    for word, _ in cert.filling.terms():
        assert R.gp(word, base)


def test_fill_gp_rejects_term_outside_subcomplex():
    R = VectorRelation(3, 2)
    A = R.alphabet
    c = Chain.term(A, ((1, 0),)) - Chain.term(A, ((0, 1),))
    with pytest.raises(PreconditionViolated):
        fill_gp(c, R, base=((2, 0),))


def test_fill_gp_random_boundaries_f25():
    rng = random.Random(523)
    R = VectorRelation(5, 2)
    order = gp_order(R).order
    for l, n in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1)]:
        base = (((1, 0), (0, 1)))[:l]
        assert 2 * n + l + 1 <= order
        for _ in range(100):
            cycle = random_gp_chain(rng, R, base, n + 1).boundary()
            cert = fill_gp(cycle, R, base, order_value=order)
            assert cert.filling.boundary() == cycle


def test_fill_gp_agrees_with_injective_fill():
    # over the injective relation with empty base both fillers must certify
    rng = random.Random(77)
    for m in (4, 5, 6):
        R = InjectiveRelation(m)
        alphabet = R.alphabet
        letters = list(range(1, m + 1))
        for n in range(1, (m - 1) // 2 + 1):
            for _ in range(20):
                terms = {}
                for _ in range(rng.randint(1, 2)):
                    word = tuple(rng.sample(letters, n + 1))
                    coeff = rng.randint(-3, 3)
                    if coeff:
                        terms[word] = coeff
                cycle = Chain(alphabet, n + 1, terms).boundary()
                by_gp = fill_gp(cycle, R)
                by_push = fill_injective(cycle)
                assert by_gp.filling.boundary() == cycle
                assert by_push.filling.boundary() == cycle


def test_fill_gp_out_of_range_may_exhaust():
    # Over F_2^2 the relation order is 3, so degree 3 with an empty base is
    # far outside the guaranteed range.  Top homology is nonzero there and
    # this explicit kernel element (derived with an independent nullspace
    # computation) cannot bound; the fill must run out of elements in
    # general position even when handed an inflated order.
    from wordhom import build_gp

    R = VectorRelation(2, 2)
    C = build_gp(R)
    assert not homology_table(C, [3])[3].is_trivial()
    A = R.alphabet
    a, b, c = (0, 1), (1, 0), (1, 1)
    cycle = (
        Chain.term(A, (a, c, b))
        - Chain.term(A, (b, a, c))
        - Chain.term(A, (b, c, a))
        + Chain.term(A, (c, a, b))
    )
    assert cycle.boundary().is_zero()
    with pytest.raises(GeneralPositionExhausted):
        fill_gp(cycle, R, order_value=10)


def test_fill_gp_audit_log_records_bound_check():
    R = VectorRelation(3, 2)
    A = R.alphabet
    c = Chain.term(A, ((1, 0),)) - Chain.term(A, ((0, 1),))
    cert = fill_gp(c, R)
    assert cert.steps[0]["action"] == "degree-bound"
    assert cert.steps[0]["satisfied"] is True


def test_certificate_json_round_trip():
    A3 = Alphabet.letters(3)
    c = Chain.term(A3, (1, 2, 3)).boundary()
    cert = fill_injective(c)
    payload = cert.to_json()
    assert payload["valid"] is True
    assert Chain.from_json(payload["input"]) == c
    assert Chain.from_json(payload["filling"]).boundary() == c
