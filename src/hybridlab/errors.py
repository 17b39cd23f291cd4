"""Exception types shared across the package."""


class HybridLabError(Exception):
    """Base class for all hybridlab errors."""


class RowSumViolation(HybridLabError):
    """A generator row does not sum to zero."""

    def __init__(self, row, value):
        self.row = row
        self.value = value
        super().__init__(f"generator row {row} sums to {value:.3e}, expected 0")


class NonPositiveRate(HybridLabError):
    """An off-diagonal transition rate is negative (or not a number)."""

    def __init__(self, i, j, value, message=None):
        self.i = i
        self.j = j
        self.value = value
        super().__init__(message or f"rate ({i},{j}) = {value} must be >= 0")


class Reducible(NonPositiveRate):
    """The chain is reducible: mode j cannot be reached from mode i through
    positive rates.  ``value`` is the rate (i, j), which is zero."""

    def __init__(self, i, j, value):
        super().__init__(i, j, value, f"mode {j} is not reachable from mode {i} through "
                                      f"positive rates (rate ({i},{j}) = {value})")


class SingularSystem(HybridLabError):
    """The stationary-distribution solve degenerated."""


class OutOfRange(HybridLabError):
    """A time query fell outside the covered horizon."""


class ShapeMismatch(HybridLabError):
    """Coefficient or matrix dimensions disagree."""


class NonFiniteCoefficient(HybridLabError):
    """A drift or diffusion evaluation returned NaN or infinity."""


class NotSPD(HybridLabError):
    """A weighting matrix is not symmetric positive definite."""


class GridMismatch(HybridLabError):
    """Two sampled objects live on incompatible time grids."""


class Blowup(HybridLabError):
    """A trajectory exceeded the integrator's magnitude guard."""

    def __init__(self, t, path_index, magnitude):
        self.t = t
        self.path_index = path_index
        self.magnitude = magnitude
        super().__init__(
            f"trajectory exceeded guard at t={t:.6g} (path {path_index}, |u|={magnitude:.3e})"
        )


class LPFailure(HybridLabError):
    """The bounded-Lipschitz linear program failed to solve."""


class ConfigError(HybridLabError):
    """Base class for scenario-configuration errors."""


class ParseError(ConfigError):
    """The scenario file is not valid JSON."""


class ValidationError(ConfigError):
    """The scenario file parsed but violates a constraint."""
