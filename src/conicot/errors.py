"""Exception types shared across the package."""


class ConicotError(Exception):
    """Base class for all package errors."""

    code = "error"


class NegativeWeight(ConicotError):
    code = "negative_weight"

    def __init__(self, index):
        self.index = index
        super().__init__(f"negative weight at index {index}")


class NonSquareKernel(ConicotError):
    code = "non_square_kernel"


class NonFiniteEntry(ConicotError):
    code = "non_finite_entry"

    def __init__(self, index):
        self.index = index
        super().__init__(f"non-finite entry at index {index}")


class NegativeScale(ConicotError):
    code = "negative_scale"


class LengthMismatch(ConicotError):
    code = "length_mismatch"


class DimensionMismatch(ConicotError):
    code = "dimension_mismatch"


class NegativeArgument(ConicotError):
    code = "negative_argument"


class NonFinite(ConicotError):
    code = "non_finite"


class SizeCapExceeded(ConicotError):
    code = "size_cap_exceeded"


class BudgetTooSmallForEitherPath(ConicotError):
    code = "budget_too_small"


class NegativeSquaredDistance(ConicotError):
    code = "negative_squared_distance"


class AllMassForcedZero(ConicotError):
    code = "all_mass_forced_zero"


class MassMismatch(ConicotError):
    code = "mass_mismatch"


class CapExceeded(ConicotError):
    code = "cap_exceeded"


class PlacementFailure(ConicotError):
    code = "placement_failure"


class InsufficientMass(ConicotError):
    code = "insufficient_mass"


class DegenerateSplit(ConicotError):
    code = "degenerate_split"


class EmptyCorrespondence(ConicotError):
    code = "empty_correspondence"
