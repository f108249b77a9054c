"""Exact cohomology and spectral-sequence engine for bounded double complexes.

The package computes, over exact rationals: column/row cohomology, de Rham
cohomology of the total complex, Bott-Chern and Aeppli cohomology, and every
page of the column-filtration spectral sequence (by two independent
algorithms).  Zigzag shapes synthesize model complexes, and the ``s6`` module
enumerates, realizes and machine-checks the admissible Hodge diamonds of a
hypothetical complex structure on the six-sphere.
"""

from .bicomplex import (DoubleComplex, InvalidComplexError, Violation,
                        conjugate, direct_sum, dual, empty_complex, validate)
from .cohomology import (BettiVector, Table, aeppli, arithmetic_genus,
                         bott_chern, de_rham, dolbeault, row_cohomology)
from .s6 import (ConstraintReport, DiamondParams, InadmissibleParamsError,
                 InferenceMismatchError, check_constraints, enumerate_diamonds,
                 infer_params, model_multiset, predicted_tables, realize_model,
                 verify_model)
from .spectral import (degeneration_page, euler_char_of_page, pages_explicit,
                       pages_filtration, stable_page_index)
from .zigzag import (ContributionProfile, GridError, ShapeError, ZigzagShape,
                     canonicalize_shape, contribution_profile,
                     enumerate_shapes, mirror_shape, realize_shape, synthesize)

__version__ = "0.1.0"

__all__ = [
    "DoubleComplex", "InvalidComplexError", "Violation", "validate",
    "direct_sum", "dual", "conjugate", "empty_complex",
    "Table", "BettiVector", "dolbeault", "row_cohomology",
    "de_rham", "bott_chern", "aeppli", "arithmetic_genus",
    "pages_filtration", "pages_explicit", "degeneration_page",
    "euler_char_of_page", "stable_page_index",
    "ZigzagShape", "ShapeError", "GridError", "canonicalize_shape",
    "realize_shape", "synthesize", "mirror_shape", "contribution_profile",
    "ContributionProfile", "enumerate_shapes",
    "DiamondParams", "ConstraintReport", "InadmissibleParamsError",
    "InferenceMismatchError", "check_constraints", "enumerate_diamonds",
    "model_multiset", "realize_model", "predicted_tables", "infer_params",
    "verify_model",
    "__version__",
]
