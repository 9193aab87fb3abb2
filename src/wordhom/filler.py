"""Constructive boundary filling.

Given a cycle, these routines produce an explicit chain whose boundary is
that cycle, together with an audit log of every boundary that was added
along the way.  Certificates are validated on construction by re-applying
the boundary operator; validity is never assumed.

Two fillers are provided.  ``fill_injective`` works in the injective-word
complex below the top degree: it fixes the smallest letter appearing in the
cycle and pushes it rightward, one index per stage, by subtracting
boundaries, until the letter leaves the cycle entirely; a cone over the
absent letter finishes the job.  ``fill_gp`` does the analogous staircase in
a general-position subcomplex, guided by the invariant ``i_invariant``: the
longest prefix length every term keeps in general position to the pivot
element, its own tail and the base word.  Each round strictly increases the
invariant, and prefix blocks are filled recursively over an extended base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import Chain
from .errors import (
    GeneralPositionExhausted,
    InternalInvariantBroken,
    InvalidInput,
    NotACycle,
    OutOfRange,
    PreconditionViolated,
)
from .genpos import GeneralPositionRelation, gp_order


@dataclass(frozen=True)
class FillCertificate:
    """A cycle, a chain bounding it, and the log of how it was found."""

    input_cycle: Chain
    filling: Chain
    steps: tuple

    def __post_init__(self):
        if self.filling.boundary() != self.input_cycle:
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
            "valid": self.check(),
        }


def _require_cycle(c: Chain):
    if not c.boundary().is_zero():
        raise NotACycle("the chain is not a cycle", degree=c.degree)


def fill_absent(c: Chain, x) -> FillCertificate:
    """Fill a cycle by coning over a symbol that does not appear in it."""
    alphabet = c.alphabet
    x = alphabet.check_symbol(x)
    if x in c.appearing_symbols():
        raise PreconditionViolated(
            "the cone symbol appears in the chain",
            symbol=alphabet.symbol_to_json(x),
        )
    _require_cycle(c)
    filling = Chain.term(alphabet, (x,)).product(c, mode="disjoint")
    step = {
        "action": "cone",
        "symbol": alphabet.symbol_to_json(x),
        "degree": c.degree,
    }
    return FillCertificate(c, filling, (step,))


# -- injective words ---------------------------------------------------------

def fill_injective(c: Chain) -> FillCertificate:
    """Fill a cycle of injective words below the top degree."""
    alphabet = c.alphabet
    if alphabet.kind != "letters":
        raise InvalidInput("fill_injective works over a letters alphabet")
    m = alphabet.m
    for word, _ in c.terms():
        if len(set(word)) != len(word):
            raise InvalidInput("a term is not an injective word", word=word)
    if c.degree >= m:
        raise OutOfRange(
            "filling is only guaranteed below the alphabet size",
            degree=c.degree,
            m=m,
        )
    _require_cycle(c)
    steps: list = []
    filling = _fill_inj(c, frozenset(range(1, m + 1)), steps, depth=0)
    return FillCertificate(c, filling, tuple(steps))


def _fill_inj(c: Chain, allowed: frozenset, steps: list, depth: int) -> Chain:
    alphabet = c.alphabet
    n = c.degree
    if c.is_zero():
        return Chain.zero(alphabet, n + 1)
    if n == 0:
        y = min(allowed)
        steps.append({"action": "cone", "symbol": y, "degree": 0, "depth": depth})
        return Chain.term(alphabet, (y,)).product(c, mode="disjoint")
    if n >= len(allowed):
        raise InternalInvariantBroken(
            "recursion left too few symbols to fill with", degree=n
        )

    x = min(c.appearing_symbols())
    work = c
    parts: list[Chain] = []
    for stage in range(n):
        # Group the terms carrying x at this index by their suffix after x.
        groups: dict[tuple, dict] = {}
        for word, coeff in work.terms():
            if x in word and word.index(x) == stage:
                groups.setdefault(word[stage + 1 :], {})[word[:stage]] = coeff
        if groups:
            products = []
            for suffix in sorted(groups):
                block = Chain(alphabet, stage, groups[suffix], _validated=True)
                if not block.boundary().is_zero():
                    raise InternalInvariantBroken(
                        "a prefix block failed to be a cycle", suffix=suffix
                    )
                sub_allowed = allowed - {x} - set(suffix)
                if block.degree >= n:
                    raise InternalInvariantBroken("recursion degree did not drop")
                filled = _fill_inj(block, sub_allowed, steps, depth + 1)
                products.append(
                    filled.product(Chain.term(alphabet, (x,) + suffix), mode="disjoint")
                )
            z = Chain.sum(alphabet, n + 1, products)
            work = work - z.boundary()
            parts.append(z)
            steps.append(
                {
                    "action": "push",
                    "symbol": x,
                    "index": stage,
                    "blocks": len(groups),
                    "depth": depth,
                }
            )
        for word, _ in work.terms():
            if x in word[: stage + 1]:
                raise InternalInvariantBroken(
                    "the pivot letter survived inside the cleared prefix",
                    stage=stage,
                )
        if x not in work.appearing_symbols():
            break

    if x in work.appearing_symbols():
        raise InternalInvariantBroken("the pivot letter was never eliminated")
    cone = Chain.term(alphabet, (x,)).product(work, mode="disjoint")
    if not work.is_zero():
        steps.append({"action": "cone", "symbol": x, "degree": n, "depth": depth})
    return Chain.sum(alphabet, n + 1, [cone, *parts])


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
        value = min(value, _term_invariant(word, x, tuple(a), relation))
        if value == 0:
            break
    return value


def _term_invariant(word, x, a, relation) -> int:
    for i in range(len(word), -1, -1):
        if relation.gp(word[:i], (x,) + word[i:] + a):
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
    base = alphabet.check_word(base)
    if not relation.gp(base, ()):
        raise PreconditionViolated(
            "the base word is not in general position",
            base=alphabet.word_to_json(base),
        )
    for word, _ in c.terms():
        if not relation.gp(word, base):
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
    filling = _fill_gp(c, relation, base, relation.extension_candidates(), steps, depth=0)
    for word, _ in filling.terms():
        if not relation.gp(word, base):
            raise InternalInvariantBroken(
                "the filling left the general-position subcomplex",
                word=alphabet.word_to_json(word),
            )
    return FillCertificate(c, filling, tuple(steps))


def _pick(relation, candidates, reference, context):
    for e in candidates:
        if relation.gp((e,), reference):
            return e
    raise GeneralPositionExhausted(
        "no candidate element is in general position to the reference word; "
        "the degree bound was violated or the relation order overestimated",
        context=context,
        reference=relation.alphabet.word_to_json(reference),
    )


def _fill_gp(c, relation, base, candidates, steps, depth) -> Chain:
    alphabet = relation.alphabet
    n = c.degree
    if c.is_zero():
        return Chain.zero(alphabet, n + 1)
    if n == 0:
        y = _pick(relation, candidates, base, "degree-zero cone")
        steps.append(
            {
                "action": "cone",
                "symbol": alphabet.symbol_to_json(y),
                "degree": 0,
                "depth": depth,
            }
        )
        return Chain.term(alphabet, (y,)).product(c)

    x = _pick(relation, candidates, base, "pivot choice")
    work = c
    parts: list[Chain] = []
    rounds = 0
    while True:
        invariant = i_invariant(work, x, base, relation)
        if invariant == n or work.is_zero():
            break
        rounds += 1
        if rounds > n:
            raise InternalInvariantBroken(
                "the prefix invariant failed to reach the degree", degree=n
            )
        if invariant == 0:
            cones = {}
            for word, coeff in work.terms():
                y = _pick(
                    relation,
                    candidates,
                    (x,) + word + base,
                    "term cone",
                )
                cones[(y,) + word] = coeff
            z = Chain(alphabet, n + 1, cones, _validated=True)
            blocks = len(work)
        else:
            groups: dict[tuple, dict] = {}
            for word, coeff in work.terms():
                if _term_invariant(word, x, base, relation) == invariant:
                    groups.setdefault(word[invariant:], {})[word[:invariant]] = coeff
            if not groups:
                raise InternalInvariantBroken("no terms realize the minimal invariant")
            products = []
            for suffix in sorted(groups):
                block = Chain(alphabet, invariant, groups[suffix], _validated=True)
                if not block.boundary().is_zero():
                    raise InternalInvariantBroken(
                        "a prefix block failed to be a cycle", suffix=suffix
                    )
                extended_base = (x,) + suffix + base
                filled = _fill_gp(
                    block, relation, extended_base, candidates, steps, depth + 1
                )
                products.append(filled.product(Chain.term(alphabet, suffix)))
            z = Chain.sum(alphabet, n + 1, products)
            blocks = len(groups)
        work = work - z.boundary()
        parts.append(z)
        steps.append(
            {
                "action": "raise-invariant",
                "from": invariant,
                "pivot": alphabet.symbol_to_json(x),
                "blocks": blocks,
                "depth": depth,
            }
        )
        new_invariant = i_invariant(work, x, base, relation)
        if not work.is_zero() and new_invariant <= invariant:
            raise InternalInvariantBroken(
                "the prefix invariant did not strictly increase",
                before=invariant,
                after=new_invariant,
            )

    cone = Chain.term(alphabet, (x,)).product(work)
    if not work.is_zero():
        steps.append(
            {
                "action": "cone",
                "symbol": alphabet.symbol_to_json(x),
                "degree": n,
                "depth": depth,
            }
        )
    return Chain.sum(alphabet, n + 1, [cone, *parts])
