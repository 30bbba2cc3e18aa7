"""Exact computation of arrangement combinatorics, twisted cohomology,
connection matrices of a moving-hyperplane family, and monodromy."""

from .arrangement import (
    AffineForm,
    Arrangement,
    Flat,
    Lattice,
    ProjForm,
    bad_loci,
    cone,
    decone,
    discriminant,
    lattice,
    validate,
)
from .aomoto import FiberContext, Weights, cohomology_dims, validate_weights
from .exactnum import Rat, WeightExpr, rat_from_str, rat_to_str, solve_linear
from .gaussmanin import (
    GMConnection,
    MovingFamily,
    flatness_check,
    gm_matrix,
)
from .matroid import broken_circuits, circuits, is_dependent, nbc_bases, nbc_sets
from .monodromy import MonodromyResult, monodromy, projector_structure, residue_of
from .osalg import ExtElem, boundary, normal_form, relation_basis_Jn
from .partialfrac import FiberChart, RatForm, WeightPoly, reduce_rational_form

__version__ = "0.1.0"

__all__ = [
    "AffineForm", "Arrangement", "Flat", "Lattice", "ProjForm",
    "bad_loci", "cone", "decone", "discriminant", "lattice", "validate",
    "FiberContext", "Weights", "cohomology_dims", "validate_weights",
    "Rat", "WeightExpr",
    "rat_from_str", "rat_to_str", "solve_linear",
    "GMConnection", "MovingFamily", "flatness_check", "gm_matrix",
    "broken_circuits", "circuits", "is_dependent", "nbc_bases", "nbc_sets",
    "MonodromyResult", "monodromy", "projector_structure", "residue_of",
    "ExtElem", "boundary", "normal_form", "relation_basis_Jn",
    "FiberChart", "RatForm", "WeightPoly", "reduce_rational_form",
    "__version__",
]
