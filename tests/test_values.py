"""The package's record and result types: immutable, and equal when their fields are."""

import copy
import pickle

import pytest

from wordhom import (
    Alphabet,
    AxiomReport,
    Chain,
    ChainComplexRep,
    FillCertificate,
    GpOrderResult,
    HomologyGroup,
    NakaokaReport,
    SparseIntMatrix,
)
from wordhom.genpos import AxiomViolation

LETTERS_3 = Alphabet.letters(3)


def _certificate():
    filling = Chain.term(LETTERS_3, (1, 2))
    return FillCertificate(input_cycle=filling.boundary(), filling=filling, steps=())


# (builder, a field to assign, whether instances hash); each builder makes
# a new instance from equal fields on every call.
CASES = {
    "Alphabet": (lambda: Alphabet.vectors(5, 2), "p", True),
    # A chain and a sparse matrix hold a dict, and hash by their own rule.
    "Chain": (lambda: Chain.term(LETTERS_3, (1, 2), -3), "alphabet", True),
    "SparseIntMatrix": (lambda: SparseIntMatrix(2, 3, {(0, 2): 5, (1, 0): -1}), "rows", True),
    "ChainComplexRep": (
        lambda: ChainComplexRep(
            dims=(1, 2), boundaries=(SparseIntMatrix(1, 2, {(0, 0): 1, (0, 1): 1}),), complete=True
        ),
        "complete",
        True,
    ),
    "FillCertificate": (_certificate, "filling", True),
    "AxiomViolation": (lambda: AxiomViolation("symmetry", (1,), (2,), ()), "axiom", True),
    # A report holds a dict and a list, so it has equality but no hash.
    "AxiomReport": (
        lambda: AxiomReport(relation="inj", trials=3, seed=0, passed=True),
        "passed",
        False,
    ),
    "GpOrderResult": (lambda: GpOrderResult(exact=True, value=2, witness=(1, 2)), "value", True),
    "NakaokaReport": (
        lambda: NakaokaReport(
            n=3,
            m=1,
            lhs=HomologyGroup(0, (2,)),
            rhs=HomologyGroup(0, [2]),
            in_range=True,
            equal=True,
        ),
        "equal",
        True,
    ),
    "HomologyGroup": (lambda: HomologyGroup(1, [2, 4]), "torsion", True),
}


@pytest.mark.parametrize("build,field,hashable", CASES.values(), ids=CASES.keys())
def test_values_are_immutable_and_compare_by_fields(build, field, hashable):
    value, twin = build(), build()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) is before
    assert value == twin and value is not twin
    if hashable:
        assert hash(value) == hash(twin)


# Every value rebuilds through __init__, so the records that hold chains and
# sparse matrices pickle too; the zero chain rebuilds at its normalized degree.
PICKLED = {
    **{name: case[0] for name, case in CASES.items()},
    "Chain.zero": lambda: Chain.zero(LETTERS_3, 1),
}


@pytest.mark.parametrize("name", sorted(PICKLED))
def test_values_survive_a_pickle_round_trip(name):
    value = PICKLED[name]()
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value
