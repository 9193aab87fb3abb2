"""Constructive boundary filling.

Given a cycle, these routines produce an explicit chain whose boundary is
that cycle, together with an audit log of every boundary that was added
along the way.  Certificates are validated on construction by re-applying
the boundary operator; validity is never assumed.

Two fillers are provided.  ``fill_injective`` works in the injective-word
complex below the top degree, where the derangement matching
(``morse.injective_classify``) has no critical word.  So its algebraic-Morse
chain homotopy h (Sköldberg 2006) fills every cycle z there, ∂h(z) = z;
``morse.morse_homotopy`` sums it along the same gradient walk as the Morse
complex, with the same checks, at every alphabet size.  A permutation π of
the letters is a chain automorphism, so the filler first relabels: it fills
π(z) and maps the filling back through π⁻¹, which is the homotopy of the
conjugated matching.  π (``_relabelling``) swaps 1 with the least letter a
that no term uses, which makes the filling the cone on a, one match per
term, and is logged as [π(1), …, π(a)]; if every letter is used, it sends
to each position i in turn the letter most undecided terms hold there,
which decides the terms that hold it at i (collapsible) or not at all
(redundant).  Every filling word must be injective.
``fill_gp`` follows Kerz's staircase in a general-position subcomplex,
guided by the invariant ``i_invariant``: the longest prefix length every
term keeps in general position to the pivot element, its own tail and the
base word.  Each round computes every term's prefix invariant once, must
strictly increase their minimum, and fills the prefix blocks recursively
over an extended base.  Every symbol reaching ``fill_gp`` is validated once,
when the cycle's ``Chain`` is built or the base is checked, so the fill asks
general position through the relation's ``point_gp``: over vectors, on the
indices of projective points, read from the relation's symbol memo, so each
symbol is indexed once per relation.
``fill_gp`` recurses on plain ``{word: coeff}`` dicts through the kernels
``chains.add_terms`` and ``chains.add_boundary``, with one prefix-block step
(``_fill_blocks``) and one cone (``_cone``).  Both fillers end in one
certificate assembly (``_certificate``), which checks every filling word and
builds one ``Chain``.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

from .alphabet import Value
from .chains import Chain, add_boundary, add_terms, word_boundary
from .errors import (
    GeneralPositionExhausted,
    InternalInvariantBroken,
    InvalidInput,
    NotACycle,
    OutOfRange,
    PreconditionViolated,
)
from .genpos import GeneralPositionRelation, gp_order
from .morse import injective_classify, morse_homotopy


class FillCertificate(Value):
    """A cycle, a chain bounding it, and the log of how it was found."""

    __slots__ = ("input_cycle", "filling", "steps")

    def __init__(self, input_cycle: Chain, filling: Chain, steps: tuple):
        super().__init__(input_cycle, filling, steps)
        if not self.check():
            raise InternalInvariantBroken(
                "certificate does not validate: boundary(filling) != cycle"
            )

    def check(self) -> bool:
        """Re-verify the certificate from scratch."""
        return self.filling.boundary() == self.input_cycle

    def to_json(self) -> dict:
        return {
            "input": self.input_cycle.to_json(),
            "filling": self.filling.to_json(),
            "steps": list(self.steps),
            # __init__ refuses a certificate whose boundary is not the cycle
            "valid": True,
        }


def _require_cycle(c: Chain):
    if not c.boundary().is_zero():
        raise NotACycle("the chain is not a cycle", degree=c.degree)


def _fill_blocks(groups: dict, fill) -> dict:
    """Sum of ``fill(block, suffix)`` with the suffix appended, over the prefix
    blocks ``{suffix: {prefix: coeff}}`` in suffix order; each must be a cycle."""
    z: dict = {}
    for suffix, block in sorted(groups.items()):
        faces: dict = {}
        add_boundary(faces, block)
        if faces:
            raise InternalInvariantBroken("a prefix block failed to be a cycle", suffix=suffix)
        # Words of different blocks end in different suffixes, so they never collide.
        z.update({word + suffix: coeff for word, coeff in fill(block, suffix).items()})
    return z


def _cone(out: dict, work: dict, x, symbol_json, degree: int, steps: list, depth: int) -> dict:
    """out += x·work, logged as a cone step; returns out."""
    add_terms(out, {(x,) + word: coeff for word, coeff in work.items()})
    steps.append({"action": "cone", "symbol": symbol_json, "degree": degree, "depth": depth})
    return out


def _certificate(c: Chain, terms: dict, steps: list, stays, message: str) -> FillCertificate:
    """The certificate of the filling ``terms``, each of whose words must pass ``stays``."""
    for word in terms:
        if not stays(word):
            raise InternalInvariantBroken(message, word=c.alphabet.word_to_json(word))
    filling = Chain(c.alphabet, c.degree + 1, terms, _validated=True)
    return FillCertificate(c, filling, tuple(steps))


# -- injective words ---------------------------------------------------------

def fill_injective(c: Chain) -> FillCertificate:
    """Fill a cycle of injective words below the top degree."""
    alphabet = c.alphabet
    if alphabet.kind != "letters":
        raise InvalidInput("fill_injective works over a letters alphabet")
    m = alphabet.m
    cycle = c.terms()
    for word, _ in cycle:
        if len(set(word)) != len(word):
            raise InvalidInput("a term is not an injective word", word=word)
    if c.degree >= m:
        raise OutOfRange(
            "filling is only guaranteed below the alphabet size",
            degree=c.degree,
            m=m,
        )
    _require_cycle(c)
    labels = _relabelling([word for word, _ in cycle], m)
    # π fixes the letters above those labelled, which the walk never adds
    # (it adds 1 alone when a letter is free), so the maps skip them.
    new = {x: x for word, _ in cycle for x in word}  # letter -> label
    new.update(enumerate(labels, 1))
    back = {i: x for x, i in new.items()}.__getitem__  # label -> letter
    relabelled = {tuple(map(new.__getitem__, w)): coeff for w, coeff in cycle}
    filling, matched = morse_homotopy(relabelled, partial(injective_classify, m), word_boundary)
    # The relabel step, then one step per word that h is summed from, in
    # order, so the log replays h in the cycle's own letters; the words
    # themselves, not lists: json writes a tuple as an array.
    steps = [{"action": "relabel", "letters": labels}]
    steps += [
        {
            "action": "match",
            "word": tuple(map(back, sigma)),
            "partner": tuple(map(back, tau)),
            "incidence": eps,
        }
        for sigma, tau, eps in matched
    ]
    terms = {tuple(map(back, w)): coeff for w, coeff in filling.items()}
    message = "a filling word repeats a letter"
    return _certificate(c, terms, steps, lambda w: len(set(w)) == len(w), message)


def _relabelling(words: list, m: int) -> list:
    """[π(1), …, π(k)] for a permutation π of 1..m that fixes every letter above k.

    If some letter is in no word, k is the least such letter a (at most one
    more than the letters used), and π swaps a with 1: every relabelled word
    then lacks 1 and is matched with 1 put in front, whose other faces begin
    with 1 and are collapsible, so h is the cone on a, one match per word.
    Otherwise k = m, at most the words' total length, and labels are given
    greedily by the words still undecided.  Label i goes, for i = 1, 2, …
    in turn, to the unlabelled letter x at position i of the most undecided
    words, the least such on ties.  That decides every word with x at
    position i (collapsible at i) and every word without x (redundant at i,
    so the walk starts at its partner); a word holding x elsewhere stays
    undecided.  Once no word is undecided, the letters left take the labels
    left in ascending order.
    """
    present = set().union(*words)
    free = next(a for a in range(1, len(present) + 2) if a not in present)
    if free <= m:
        labels = list(range(1, free + 1))
        labels[0], labels[-1] = free, 1
        return labels
    order = []  # the letters labelled so far, by label
    unlabelled = list(range(1, m + 1))  # stays sorted, so max takes the least on ties
    undecided = words
    while undecided:
        i = len(order)
        counts = Counter(w[i] for w in undecided if i < len(w))
        x = max(unlabelled, key=counts.__getitem__)
        unlabelled.remove(x)
        order.append(x)
        undecided = [w for w in undecided if x in w and w[i] != x]
    labels = [0] * m
    for i, x in enumerate(order + unlabelled, 1):
        labels[x - 1] = i
    return labels


# -- general position --------------------------------------------------------

def i_invariant(c: Chain, x, a, relation: GeneralPositionRelation) -> int:
    """Longest prefix length kept in general position by every term.

    For a term v of degree n this is the largest i <= n such that the first
    i entries of v are in general position to (x, last n-i entries of v, a);
    the chain value is the minimum over its terms.  It equals n exactly when
    the whole chain is in general position to (x, a).
    """
    value = c.degree
    for word, _ in c.terms():
        value = min(value, _term_invariant(word, x, tuple(a), relation.gp))
        if value == 0:
            break
    return value


def _term_invariant(word, x, a, gp) -> int:
    for i in range(len(word), -1, -1):
        if gp(word[:i], (x,) + word[i:] + a):
            return i
    raise InternalInvariantBroken("empty prefixes must be in general position")


def fill_gp(
    c: Chain,
    relation: GeneralPositionRelation,
    base=(),
    order_value: int | None = None,
) -> FillCertificate:
    """Fill a cycle inside the subcomplex of words in general position to base.

    The base must itself be in general position, gp(base; ()), and every term
    of the cycle in general position to it; either failure raises
    PreconditionViolated.

    ``order_value`` is the order of the relation or a certified lower bound
    for it; when omitted it is computed by gp_order.  The degree bound
    2*degree + len(base) + 1 <= order is recorded in the audit log and the
    fill is attempted either way; outside the bound the search for elements
    in general position may legitimately fail with GeneralPositionExhausted.
    """
    alphabet = relation.alphabet
    if c.alphabet != alphabet:
        raise InvalidInput("the chain and the relation use different alphabets")
    base = relation.check_base(base)
    # Every symbol of the fill is validated by now: the cycle's when its Chain
    # was built, the base's just above, and the candidates are the relation's
    # own.  So gp is decided on the relation's names for them.
    gp = relation.point_gp()
    for word, _ in c.terms():
        if not gp(word, base):
            raise PreconditionViolated(
                "a term of the cycle is not in general position to the base",
                word=alphabet.word_to_json(word),
            )
    _require_cycle(c)
    if order_value is None:
        order_value = gp_order(relation).lower_bound
    bound_ok = 2 * c.degree + len(base) + 1 <= order_value
    steps: list = [
        {
            "action": "degree-bound",
            "order": order_value,
            "degree": c.degree,
            "base_length": len(base),
            "satisfied": bound_ok,
        }
    ]
    candidates = relation.extension_candidates()
    terms = _fill_gp(dict(c.terms()), gp, alphabet, base, candidates, steps, depth=0)
    message = "the filling left the general-position subcomplex"
    return _certificate(c, terms, steps, lambda w: gp(w, base), message)


def _pick(gp, alphabet, candidates, reference, context):
    for e in candidates:
        if gp((e,), reference):
            return e
    raise GeneralPositionExhausted(
        "no candidate element is in general position to the reference word; "
        "the degree bound was violated or the relation order overestimated",
        context=context,
        reference=alphabet.word_to_json(reference),
    )


def _fill_gp(work: dict, gp, alphabet, base, candidates, steps, depth) -> dict:
    """Terms of a filling of the cycle ``work``, which is used as scratch;
    ``gp`` is the relation's ``point_gp``."""
    if not work:
        return {}
    n = len(next(iter(work)))
    if n == 0:
        y = _pick(gp, alphabet, candidates, base, "degree-zero cone")
        return _cone({}, work, y, alphabet.symbol_to_json(y), 0, steps, depth)

    x = _pick(gp, alphabet, candidates, base, "pivot choice")
    out: dict = {}
    invariant = -1
    rounds = 0
    while work:
        # Each term's prefix invariant, computed once per round.
        levels = {word: _term_invariant(word, x, base, gp) for word in work}
        before, invariant = invariant, min(levels.values())
        if invariant <= before:
            raise InternalInvariantBroken(
                "the prefix invariant did not strictly increase",
                before=before,
                after=invariant,
            )
        if invariant == n:
            break
        rounds += 1
        if rounds > n:
            raise InternalInvariantBroken(
                "the prefix invariant failed to reach the degree", degree=n
            )
        if invariant == 0:
            z: dict = {}
            for word, coeff in sorted(work.items()):
                y = _pick(gp, alphabet, candidates, (x,) + word + base, "term cone")
                z[(y,) + word] = coeff
            blocks = len(work)
        else:
            groups: dict[tuple, dict] = {}
            for word, coeff in work.items():
                if levels[word] == invariant:
                    groups.setdefault(word[invariant:], {})[word[:invariant]] = coeff
            z = _fill_blocks(
                groups,
                lambda block, suffix: _fill_gp(
                    block, gp, alphabet, (x,) + suffix + base, candidates, steps, depth + 1
                ),
            )
            blocks = len(groups)
        add_terms(out, z)
        add_boundary(work, z, -1)
        steps.append(
            {
                "action": "raise-invariant",
                "from": invariant,
                "pivot": alphabet.symbol_to_json(x),
                "blocks": blocks,
                "depth": depth,
            }
        )

    if work:
        _cone(out, work, x, alphabet.symbol_to_json(x), n, steps, depth)
    return out
