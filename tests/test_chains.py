import itertools
import random

import pytest

from wordhom import Alphabet, Chain, DisjointnessViolation, InvalidInput
from wordhom.chains import add_boundary, word_boundary
from conftest import random_letter_chain, random_vector_chain

A5 = Alphabet.letters(5)


def term(word, coeff=1, alphabet=A5):
    return Chain.term(alphabet, word, coeff)


def test_boundary_of_pair():
    assert term((1, 2)).boundary() == term((2,)) - term((1,))


def test_single_word_form_equals_add_boundary():
    # Every word of length 0..6 over 4 letters, repeats included: the
    # single-word form gives the same terms in the same order.
    for n in range(7):
        for word in itertools.product(range(1, 5), repeat=n):
            out = {}
            add_boundary(out, {word: 1})
            assert list(word_boundary(word).items()) == list(out.items()), word


def test_boundary_squared_on_triple():
    assert term((1, 2, 3)).boundary().boundary().is_zero()


def test_boundary_is_linear_on_mixed_chain():
    c = term((5, 1), 4) + term((2, 3))
    expected = term((1,), 4) - term((5,), 4) + term((3,)) - term((2,))
    assert c.boundary() == expected


def test_degree_one_boundary_is_augmentation():
    assert term((3,), 7).boundary() == Chain.term(A5, (), 7)


def test_degree_zero_boundary_is_zero():
    assert Chain.term(A5, (), 9).boundary().is_zero()


def test_product_concatenates_words():
    assert term((1,)).product(term((2, 3))) == term((1, 2, 3))


def test_product_multiplies_coefficients():
    assert term((1,), 2).product(term((2,), 3)) == term((1, 2), 6)


def test_disjoint_product_rejects_shared_symbol():
    with pytest.raises(DisjointnessViolation) as err:
        term((1,)).product(term((1, 2)), mode="disjoint")
    assert err.value.context["symbol"] == 1


def test_appearing_symbols_of_mixed_chain():
    c = term((2, 3)) + term((5, 1), 4)
    assert c.appearing_symbols() == {1, 2, 3, 5}


def test_appearing_symbols_trivial_cases():
    assert Chain.zero(A5, 2).appearing_symbols() == set()
    assert Chain.term(A5, (), 7).appearing_symbols() == set()


def test_chain_rejects_wrong_length_term():
    with pytest.raises(InvalidInput):
        Chain(A5, 2, {(1,): 1})


def test_chain_rejects_foreign_symbol():
    with pytest.raises(InvalidInput):
        Chain(A5, 1, {(9,): 1})


def _sliced_boundary(out, terms, k):
    """out + k * boundary(terms) by the definition: entry j deleted with sign (-1)^j."""
    total = dict(out)
    for word, coeff in terms.items():
        for j in range(len(word)):
            face = word[:j] + word[j + 1 :]
            total[face] = total.get(face, 0) + (-1) ** j * k * coeff
    return {w: c for w, c in total.items() if c}


def test_add_boundary_matches_the_slicing_definition():
    rng = random.Random(2024)
    for _ in range(400):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 8)))
            terms[word] = rng.choice([c for c in range(-3, 4) if c])
        k = rng.choice([-2, 1, 3])
        # Seed out with some of the faces, half of them set to cancel exactly.
        faces = sorted(_sliced_boundary({}, terms, k).items())
        out = {}
        for face, c in rng.sample(faces, rng.randint(0, len(faces))):
            out[face] = -c if rng.random() < 0.5 else rng.randint(1, 5)
        out[("unrelated",)] = 7
        expected = _sliced_boundary(out, terms, k)
        add_boundary(out, terms, k)
        assert out == expected
        assert all(out.values())


def test_the_empty_word_has_no_faces():
    out = {(1,): 2}
    add_boundary(out, {(): 5}, 3)
    assert out == {(1,): 2}


def test_boundary_squared_randomized():
    rng = random.Random(101)
    for _ in range(300):
        m = rng.randint(1, 6)
        c = random_letter_chain(rng, m, rng.randint(0, 5))
        assert c.boundary().boundary().is_zero()
    for _ in range(100):
        c = random_vector_chain(rng, 3, 2, rng.randint(0, 4))
        assert c.boundary().boundary().is_zero()


def test_leibniz_rule_randomized():
    # d(c c') = d(c) c' + (-1)^deg(c) c d(c') for the concatenation product.
    rng = random.Random(77)
    for _ in range(1000):
        m = rng.randint(1, 5)
        n = rng.randint(0, 3)
        l = rng.randint(0, 3)
        c = random_letter_chain(rng, m, n)
        c2 = random_letter_chain(rng, m, l)
        left = c.product(c2).boundary()
        right = c.boundary().product(c2) + ((-1) ** n) * c.product(c2.boundary())
        assert left == right


def test_boundary_linearity_randomized():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        c = random_letter_chain(rng, 5, n)
        c2 = random_letter_chain(rng, 5, n)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        assert (a * c + b * c2).boundary() == a * c.boundary() + b * c2.boundary()


def test_serialize_round_trip_and_injectivity():
    rng = random.Random(13)
    seen = {}
    for _ in range(200):
        c = random_letter_chain(rng, 4, rng.randint(0, 3))
        text = c.serialize()
        assert Chain.parse(text) == c
        if text in seen:
            assert seen[text] == c
        seen[text] = c
    v = random_vector_chain(rng, 3, 2, 2)
    assert Chain.parse(v.serialize()) == v


def test_serialize_is_canonical_across_construction_order():
    c1 = term((1, 2)) + term((2, 1))
    c2 = term((2, 1)) + term((1, 2))
    assert c1.serialize() == c2.serialize()


def test_vector_chain_symbols_validated():
    A = Alphabet.vectors(3, 2)
    with pytest.raises(InvalidInput):
        Chain.term(A, ((3, 0),))
    ok = Chain.term(A, ((2, 1),))
    assert ok.degree == 1


def test_subtraction_matches_adding_the_negative():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(0, 3)
        c = random_letter_chain(rng, 5, n)
        c2 = random_letter_chain(rng, 5, n)
        assert c - c2 == c + (-c2) == c + (-1) * c2
        assert (c - c).is_zero()
    # a zero chain of any stored degree combines with a chain of any degree
    assert Chain.zero(A5, 2) - term((1, 2, 3)) == term((1, 2, 3), -1)
    assert term((1, 2, 3)) - Chain.zero(A5, 2) == term((1, 2, 3))
    for combine in (Chain.__add__, Chain.__sub__):
        with pytest.raises(InvalidInput):
            combine(term((1, 2)), term((1, 2, 3)))
