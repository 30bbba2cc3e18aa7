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
from .matroid import circuits, nbc_sets
from .monodromy import MonodromyResult, monodromy, projector_structure, residue_of
from .osalg import ExtElem, boundary

__version__ = "0.1.0"

__all__ = [
    "AffineForm", "Arrangement", "Flat", "Lattice", "ProjForm",
    "bad_loci", "cone", "discriminant", "lattice", "validate",
    "FiberContext", "Weights", "cohomology_dims", "validate_weights",
    "Rat", "WeightExpr",
    "rat_from_str", "rat_to_str", "solve_linear",
    "GMConnection", "MovingFamily", "flatness_check", "gm_matrix",
    "circuits", "nbc_sets",
    "MonodromyResult", "monodromy", "projector_structure", "residue_of",
    "ExtElem", "boundary",
    "__version__",
]
