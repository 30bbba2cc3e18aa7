"""Exception types shared across the package."""

from __future__ import annotations


class ArrgmError(Exception):
    """Base class for all package-specific errors."""


class DuplicateHyperplaneError(ArrgmError):
    """Two input forms cut the same hyperplane."""

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second
        super().__init__(f"duplicate hyperplane: indices {first} and {second} are proportional")


class LeadingFrameError(ArrgmError):
    """The leading forms of an arrangement are linearly dependent."""


class InconsistentSystemError(ArrgmError):
    """An exact linear system has no solution.

    ``row`` is the index (in the caller's row numbering) of a row whose
    equation cannot be satisfied.
    """

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"inconsistent linear system (failing row {row})")


class NonlinearFitError(ArrgmError):
    """Residues are not homogeneous linear in the weights: the symbolic class
    solve has no solution free of the weights."""

    def __init__(self) -> None:
        super().__init__("nonlinear in weights")


class ResonantWeightsError(ArrgmError):
    """Numeric weights violate the genericity conditions."""


class SampleRejectedError(ArrgmError):
    """A fiber or a class reduction is degenerate: a parameter point on the
    discriminant, or weights resonant there (the reduction is inconsistent)."""


class UnknownComponentError(ArrgmError):
    """Requested discriminant component is not part of the connection."""

    def __init__(self, requested: str, available: list[str]):
        self.requested = requested
        self.available = available
        super().__init__(
            f"unknown component {requested}; available components: {', '.join(available)}"
        )


class ResonantResidueError(ArrgmError):
    """Residue eigenvalues differ by a nonzero integer; the conjugacy-class formula fails."""

    def __init__(self) -> None:
        super().__init__("resonant residue; conjugacy-class formula inapplicable")
