"""Exact integer homology of word complexes.

Words over an alphabet (letters 1..m or vectors over a prime field) form
chain complexes; this package builds them, computes their integer homology
through a sparse Smith normal form, produces constructive boundary-filling
certificates, searches for the order of general position relations, and
checks homology stability of symmetric groups at desk scale.  All arithmetic
is arbitrary-precision integer arithmetic.
"""

from .alphabet import Alphabet
from .chains import Chain
from .complexes import ChainComplexRep, build_full, build_gp, build_injective
from .errors import (
    DisjointnessViolation,
    GeneralPositionExhausted,
    InternalInvariantBroken,
    InvalidInput,
    NotACycle,
    OutOfRange,
    PreconditionViolated,
    ResourceLimit,
    TruncationError,
    WordhomError,
)
from .filler import FillCertificate, fill_gp, fill_injective, i_invariant
from .genpos import (
    AxiomReport,
    GeneralPositionRelation,
    GpOrderResult,
    InjectiveRelation,
    VectorRelation,
    check_axioms,
    gp_inj,
    gp_order,
    gp_vec,
)
from .grouphom import (
    NakaokaReport,
    PermutationGroup,
    abelianization,
    bar_boundary,
    build_bar_complex,
    collapsed_bar_complex,
    group_homology,
    nakaoka_table,
    sym_homology,
)
from .homology import HomologyGroup, derangement_count, homology_table, rank_formula
from .linalg import SparseIntMatrix, rank, rank_mod_p, smith_normal_form
from .morse import injective_morse_complex, morse_complex

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AxiomReport",
    "Chain",
    "ChainComplexRep",
    "DisjointnessViolation",
    "FillCertificate",
    "GeneralPositionExhausted",
    "GeneralPositionRelation",
    "GpOrderResult",
    "HomologyGroup",
    "InjectiveRelation",
    "InternalInvariantBroken",
    "InvalidInput",
    "NakaokaReport",
    "NotACycle",
    "OutOfRange",
    "PermutationGroup",
    "PreconditionViolated",
    "ResourceLimit",
    "SparseIntMatrix",
    "TruncationError",
    "VectorRelation",
    "WordhomError",
    "abelianization",
    "bar_boundary",
    "build_bar_complex",
    "build_full",
    "build_gp",
    "build_injective",
    "check_axioms",
    "collapsed_bar_complex",
    "derangement_count",
    "fill_gp",
    "fill_injective",
    "gp_inj",
    "gp_order",
    "gp_vec",
    "group_homology",
    "homology_table",
    "i_invariant",
    "injective_morse_complex",
    "morse_complex",
    "nakaoka_table",
    "rank",
    "rank_formula",
    "rank_mod_p",
    "smith_normal_form",
    "sym_homology",
]
