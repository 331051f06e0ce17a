"""Exact character theory of SL2(F_p) and the weight-2 cusp-form character.

Cyclotomic arithmetic with canonical forms, the full irreducible character
table, Deligne-Lusztig virtual characters, and the exact decomposition of
the cusp-form character over them, with a CLI verifier for prime ranges.
"""

__version__ = "0.1.0"

from .chartable import CharacterData, Irreducible, validate_table
from .classfun import ClassFunction, dual, inner_product
from .cyclotomic import CycNumber, embed_rational, gauss_sum
from .cuspform import decompose_dl, paper_coefficients, remark_pipeline, weinstein_character
from .group import ConjugacyTable, GroupElement, build_conjugacy_table, build_subgroup, build_torus

__all__ = [
    "__version__",
    "CharacterData",
    "Irreducible",
    "validate_table",
    "ClassFunction",
    "dual",
    "inner_product",
    "CycNumber",
    "embed_rational",
    "gauss_sum",
    "decompose_dl",
    "paper_coefficients",
    "remark_pipeline",
    "weinstein_character",
    "ConjugacyTable",
    "GroupElement",
    "build_conjugacy_table",
    "build_subgroup",
    "build_torus",
]
