import hashlib
import json
import random

import pytest

from wordhom import (
    Alphabet,
    Chain,
    GeneralPositionExhausted,
    GeneralPositionRelation,
    InjectiveRelation,
    InternalInvariantBroken,
    InvalidInput,
    NotACycle,
    OutOfRange,
    PreconditionViolated,
    VectorRelation,
    fill_gp,
    fill_injective,
    gp_order,
    homology_table,
    i_invariant,
)
from wordhom import filler
from wordhom.chains import word_boundary
from wordhom.filler import _cone, _fill_blocks
from wordhom.morse import COLLAPSIBLE, CRITICAL, REDUNDANT, injective_classify
from conftest import letter_by_letter_matching, random_gp_chain

A5 = Alphabet.letters(5)


def term(word, coeff=1, alphabet=A5):
    return Chain.term(alphabet, word, coeff)


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
                for word, _ in cert.filling.terms():
                    assert len(set(word)) == len(word)
                    assert set(word) <= set(letters)


def test_fill_injective_refuses_a_cyclic_matching(monkeypatch):
    # The letter-by-letter matching pairs (2,1) with (3,2,1) and (3,1) with
    # (2,3,1), a gradient cycle that d(3,2,1) + d(1,2,3) reaches: each letter
    # starts two of its six words, so the tie keeps every label, and (2,1)
    # is one of its words.  d(1,2,3) alone keeps its labels too, since
    # letter 1 starts two of its three words; its one redundant word (2,3)
    # is matched with (1,2,3), whose other faces are collapsible, so it
    # still fills.
    _, classify, _ = letter_by_letter_matching(3)
    monkeypatch.setattr(filler, "injective_classify", lambda m, w: classify(w))
    A3 = Alphabet.letters(3)
    with pytest.raises(InternalInvariantBroken, match="the matching has a cycle"):
        fill_injective(Chain(A3, 3, {(3, 2, 1): 1, (1, 2, 3): 1}).boundary())
    cycle = Chain.term(A3, (1, 2, 3)).boundary()
    assert fill_injective(cycle).filling.boundary() == cycle


def _doubled_boundary(word):
    return {face: 2 * c for face, c in word_boundary(word).items()}


@pytest.mark.parametrize(
    "classify,boundary,message",
    [
        # every incidence doubled: (2,3) is matched with (1,2,3) at incidence 2
        (injective_classify, _doubled_boundary, "incidence"),
        # (2,3) is matched with (1,3,2), which does not have it as a face
        (
            lambda m, w: (REDUNDANT, (1, 3, 2)) if w == (2, 3) else injective_classify(m, w),
            word_boundary,
            "incidence",
        ),
        (lambda m, w: (CRITICAL, None), word_boundary, "critical"),
        # (1,2,3), the partner of (2,3), is classified redundant
        (
            lambda m, w: (REDUNDANT, w + (4,)) if len(w) == 3 else injective_classify(m, w),
            word_boundary,
            "partner",
        ),
    ],
)
def test_fill_injective_refuses_a_broken_matching(monkeypatch, classify, boundary, message):
    monkeypatch.setattr(filler, "injective_classify", classify)
    monkeypatch.setattr(filler, "word_boundary", boundary)
    with pytest.raises(InternalInvariantBroken, match=message):
        fill_injective(Chain.term(Alphabet.letters(4), (1, 2, 3)).boundary())


def test_fill_injective_over_forty_letters():
    # These cycles use at most 10 of the 40 letters, so the filling is the
    # cone on the least letter a they leave out and uses only their letters
    # and a; the same cycle filled twice gives the same certificate.
    A40 = Alphabet.letters(40)
    rng = random.Random(2040)
    for n in range(1, 5):
        for _ in range(5):
            words = [tuple(rng.sample(range(1, 41), n + 1)) for _ in range(2)]
            cycle = Chain(A40, n + 1, {w: rng.randint(1, 3) for w in words}).boundary()
            cert = fill_injective(cycle)
            letters = cycle.appearing_symbols()
            a = min(set(range(1, 41)) - letters)
            assert cert.filling.appearing_symbols() <= letters | {a}
            assert fill_injective(cycle).to_json() == cert.to_json()


def _cone_on(a, cycle):
    return Chain.term(cycle.alphabet, (a,)).product(cycle, mode="disjoint")


def test_fill_injective_cones_on_the_least_free_letter():
    # Swapping a with 1 leaves every word without 1, matched with 1 put in
    # front, so the filling is a·z with one match step per term, a·w for w.
    rng = random.Random(2042)
    for _ in range(200):
        m = rng.randint(2, 12)
        n = rng.randint(1, m - 1)
        letters = rng.sample(range(1, m + 1), rng.randint(n + 1, m))
        words = [tuple(rng.sample(letters, n + 1)) for _ in range(rng.randint(1, 3))]
        cycle = Chain(Alphabet.letters(m), n + 1, {w: rng.randint(1, 3) for w in words}).boundary()
        free = set(range(1, m + 1)) - cycle.appearing_symbols()
        if not free:
            continue
        a = min(free)
        cert = fill_injective(cycle)
        assert cert.filling == _cone_on(a, cycle)
        relabel, *matches = cert.steps
        labels = list(range(1, m + 1))
        labels[0], labels[a - 1] = a, 1
        assert relabel == {"action": "relabel", "letters": labels[:a]}
        assert [(s["word"], s["partner"]) for s in matches] == [
            (w, (a,) + w) for w, _ in cycle.terms()
        ]


def test_fill_injective_expands_one_word_per_term_over_forty_letters(monkeypatch):
    # The degree-11 boundary of three random words on the letters 1..14 over
    # 40 letters, which the walk of the unrelabelled matching expands 171,741
    # words for.  Every redundant word expanded reads its partner's boundary
    # once, so counting those reads counts the expansions.
    rng = random.Random(5)
    for n in range(1, 12):
        terms = {tuple(rng.sample(range(1, n + 4), n + 1)): rng.randint(1, 3) for _ in range(3)}
    cycle = Chain(Alphabet.letters(40), 12, terms).boundary()
    assert cycle.degree == 11
    reads = []
    monkeypatch.setattr(filler, "word_boundary", lambda w: reads.append(w) or word_boundary(w))
    cert = fill_injective(cycle)
    assert len(reads) <= len(cycle)
    assert cert.filling == _cone_on(min(set(range(1, 41)) - cycle.appearing_symbols()), cycle)


def test_fill_injective_relabels_full_support_cycles_by_the_undecided_words(monkeypatch):
    # Cycles that use every letter have no free letter to cone on, so the
    # labels are given by the words still undecided.  Each partner boundary
    # read is one word the walk expands.  The degree-8 cycle on 10 letters
    # is one that the rule by position frequency expands 3,208 words for.
    reads = []
    monkeypatch.setattr(filler, "word_boundary", lambda w: reads.append(w) or word_boundary(w))
    words = {
        (9, 1, 3, 5, 8, 10, 2, 7, 4): 1,
        (4, 7, 6, 2, 9, 3, 1, 8, 5): 2,
        (2, 1, 3, 10, 5, 4, 8, 6, 9): 3,
    }
    cycle = Chain(Alphabet.letters(10), 9, words).boundary()
    assert (cycle.degree, len(cycle)) == (8, 27)
    fill_injective(cycle)
    assert len(reads) <= 250
    # 100 seeded full-support cycles shaped like the benchmark's: the
    # boundaries of at most three random words over 7 or 8 letters.
    rng = random.Random(2043)
    cycles = []
    while len(cycles) < 100:
        m = rng.choice((7, 8))
        n = rng.randint(1, m - 1)
        terms = {
            tuple(rng.sample(range(1, m + 1), n + 1)): rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
            for _ in range(rng.randint(1, 3))
        }
        cycle = Chain(Alphabet.letters(m), n + 1, terms).boundary()
        if cycle.appearing_symbols() == set(range(1, m + 1)):
            cycles.append(cycle)
    reads.clear()
    for cycle in cycles:
        fill_injective(cycle)
    assert len(reads) <= sum(len(cycle) for cycle in cycles)


def test_fill_injective_steps_replay_the_filling():
    # The first step relabels letter x as π(x), and π fixes every letter
    # above those it lists.  Replayed in order, each match step hands its
    # word's coefficient c on: the partner gets incidence·c, and every
    # other face ρ of the partner loses incidence·c·[∂ partner:ρ].  That
    # rebuilds the filling and leaves nonzero coefficients only on words w
    # with π(w) collapsible, where the homotopy of the relabelled matching
    # is 0.
    rng = random.Random(2041)
    for m in (5, 7, 10):
        alphabet = Alphabet.letters(m)
        for _ in range(30):
            n = rng.randint(1, m - 1)
            words = [tuple(rng.sample(range(1, m + 1), n + 1)) for _ in range(3)]
            cycle = Chain(alphabet, n + 1, {w: rng.randint(1, 3) for w in words}).boundary()
            cert = fill_injective(cycle)
            relabel, *matches = cert.steps
            assert relabel["action"] == "relabel"
            pi = {x: x for x in range(1, m + 1)} | dict(enumerate(relabel["letters"], 1))
            assert sorted(pi.values()) == list(range(1, m + 1))
            coeffs = dict(cycle.terms())
            filling = {}
            for step in matches:
                assert step["action"] == "match"
                sigma, tau = tuple(step["word"]), tuple(step["partner"])
                c = step["incidence"] * coeffs.pop(sigma)
                filling[tau] = c
                for rho, d in word_boundary(tau).items():
                    if rho != sigma:
                        coeffs[rho] = coeffs.get(rho, 0) - c * d
            assert Chain(alphabet, n + 1, filling) == cert.filling
            assert all(
                injective_classify(m, tuple(pi[x] for x in w))[0] == COLLAPSIBLE
                for w, c in coeffs.items()
                if c
            )


def test_fill_injective_output_is_pinned():
    # The certificates (filling and audit log) of a fixed seeded list of
    # cycles on 7 and 8 letters hash to a recorded value, so any change to
    # the filler's output or to the order of its steps shows here.
    rng = random.Random(2031)
    digest = hashlib.sha256()
    for m in (7, 8):
        alphabet = Alphabet.letters(m)
        letters = list(range(1, m + 1))
        for _ in range(25):
            n = rng.randint(1, m - 1)
            terms = {
                tuple(rng.sample(letters, n + 1)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 3))
            }
            cycle = Chain(alphabet, n + 1, terms).boundary()
            payload = fill_injective(cycle).to_json()
            digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "c3e290245ad6eee9897831f9e9dbfdc8777ce5a693fc9cd5e27e9a4c2816ab3c"
    )


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


def test_fill_gp_output_is_pinned():
    # The certificates of a fixed seeded list of cycles on F_5^2 and F_7^2,
    # with bases of length 0-2, and on six letters with an empty base, hash
    # to a recorded value, so any change to the filler's output or to the
    # order of its steps shows here.
    rng = random.Random(2032)
    digest = hashlib.sha256()
    cases = [(VectorRelation(p, 2), ((1, 0), (0, 1))[:l]) for p in (5, 7) for l in range(3)]
    cases.append((InjectiveRelation(6), ()))
    for relation, base in cases:
        order = gp_order(relation).order
        top = (order - len(base) - 1) // 2
        for _ in range(8):
            n = rng.randint(1, top)
            if isinstance(relation, InjectiveRelation):
                words = [tuple(rng.sample(range(1, 7), n + 1)) for _ in range(3)]
                chain = Chain(relation.alphabet, n + 1, {w: rng.randint(-3, 3) for w in words})
            else:
                chain = random_gp_chain(rng, relation, base, n + 1)
            cycle = chain.boundary()
            payload = fill_gp(cycle, relation, base, order_value=order).to_json()
            digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "047e2a60afa689e2e490665b2471c81ac219dddd0d32e0e0003854afbd01462f"
    )


def test_fill_gp_output_is_pinned_on_scaled_symbols():
    # A symbol and its nonzero multiples name one projective point, so a
    # scaled entry such as (2, 4) = 2*(1, 2) must fill exactly as recorded.
    # Bases of length 0-3 are drawn from scaled projective points, and the
    # cycles' entries from every nonzero vector.
    rng = random.Random(2033)
    digest = hashlib.sha256()
    scaled = 0
    for p in (5, 7):
        relation = VectorRelation(p, 2)
        order = gp_order(relation).order
        for l in range(4):
            for _ in range(6):
                points = rng.sample(relation.projective_points(), l)
                lams = [rng.randrange(1, p) for _ in points]
                base = tuple(tuple(lam * a % p for a in v) for lam, v in zip(lams, points))
                n = rng.randint(1, (order - l - 1) // 2)
                cycle = random_gp_chain(rng, relation, base, n + 1).boundary()
                scaled += sum(1 for word, _ in cycle.terms() for v in word + base
                              if next(a for a in v if a) != 1)
                payload = fill_gp(cycle, relation, base, order_value=order).to_json()
                digest.update(json.dumps(payload, sort_keys=True).encode())
    assert scaled
    assert digest.hexdigest() == (
        "238652f44c85e9f2f5fd835e6019d69a189d5323a181b685bb51de6c75fea4c1"
    )


def test_fill_gp_validates_symbols_once(monkeypatch):
    # The fill decides gp on point indices: the one call of the relation's
    # validating gp is check_base's, on the base word.
    rng = random.Random(13)
    R = VectorRelation(7, 2)
    base = ((3, 6), (0, 5))
    cycle = random_gp_chain(rng, R, base, 3).boundary()
    calls = []
    gp = VectorRelation.gp

    def counting(self, x, y):
        calls.append((x, y))
        return gp(self, x, y)

    monkeypatch.setattr(VectorRelation, "gp", counting)
    cert = fill_gp(cycle, R, base, order_value=8)
    assert cert.filling.boundary() == cycle
    assert calls == [(base, ())]


class Injective(GeneralPositionRelation):
    """gp and extension_candidates only: the rest is the base class's."""

    def __init__(self, m):
        self.alphabet = Alphabet.letters(m)

    def gp(self, x, y):
        return len(set(x)) == len(x) and not set(x) & set(y)

    def extension_candidates(self):
        return self.alphabet.symbols()


def test_fill_gp_over_a_minimal_relation():
    R = Injective(6)
    assert R.point_gp() == R.gp
    cycle = Chain.term(R.alphabet, (1, 2, 3)).boundary()
    cert = fill_gp(cycle, R, base=(6,), order_value=6)
    assert cert.filling.boundary() == cycle
    for word, _ in cert.filling.terms():
        assert R.gp(word, (6,))


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


# -- the shared steps -------------------------------------------------------------

def test_fill_blocks_refuses_a_block_that_is_not_a_cycle():
    # (1) - (4) is a cycle; (1) alone has boundary () and is not.  Blocks are
    # filled in suffix order, so the cycle is filled and the other is refused.
    filled = []

    def fill(block, suffix):
        filled.append(suffix)
        return {}

    groups = {(3,): {(1,): 1}, (2,): {(1,): 1, (4,): -1}}
    with pytest.raises(InternalInvariantBroken, match="prefix block") as info:
        _fill_blocks(groups, fill)
    assert info.value.context == {"suffix": (3,)}
    assert filled == [(2,)]


def test_cone_prepends_its_symbol_and_logs_one_step():
    out = {(5, 1): 2}
    steps: list = []
    assert _cone(out, {(1,): 3, (2,): -1}, 4, 4, 1, steps, 2) is out
    assert out == {(5, 1): 2, (4, 1): 3, (4, 2): -1}
    assert steps == [{"action": "cone", "symbol": 4, "degree": 1, "depth": 2}]
