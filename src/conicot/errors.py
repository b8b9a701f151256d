"""Exception types shared across the package."""

import numbers


class ConicotError(Exception):
    """Base class for all package errors."""

    code = "error"


def _where(name, index):
    """Where an entry sits: "at index 1", or "in b at index 1" for a named input."""
    return f"in {name} at index {index}" if name else f"at index {index}"


class NegativeWeight(ConicotError):
    code = "negative_weight"

    def __init__(self, index, name=None):
        self.index = index
        super().__init__(f"negative weight {_where(name, index)}")


class NonSquareKernel(ConicotError):
    code = "non_square_kernel"


class NonFiniteEntry(ConicotError):
    code = "non_finite_entry"

    def __init__(self, index, name=None):
        self.index = index
        super().__init__(f"non-finite entry {_where(name, index)}")


class NegativeScale(ConicotError):
    code = "negative_scale"


class LengthMismatch(ConicotError):
    code = "length_mismatch"


class DimensionMismatch(ConicotError):
    code = "dimension_mismatch"


class NegativeArgument(ConicotError):
    code = "negative_argument"


def check_count(name, value, low):
    """Raise NegativeArgument unless value is an integer (Python or numpy) >= low."""
    if not isinstance(value, numbers.Integral):
        raise NegativeArgument(f"{name} = {value} is not an integer")
    if value < low:
        raise NegativeArgument(f"{name} = {value} is below {low}")


class NonFinite(ConicotError):
    code = "non_finite"


class NegativeSquaredDistance(ConicotError):
    code = "negative_squared_distance"


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
