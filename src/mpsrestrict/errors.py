"""Exception taxonomy for the whole package.

Every contract failure raises a named subclass of :class:`MpsRestrictError`,
so callers (and the CLI exit-code mapping) can distinguish guard violations,
invalid models, and internal numeric inconsistencies without string matching.
A bad length, tolerance or matrix raises a named error such as OutOfRange or
NotDensityOperator (CLI exit 3); only the enumeration guard gives exit 2.
"""

from __future__ import annotations


class MpsRestrictError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- linear algebra


class NonSquare(MpsRestrictError):
    """A square matrix was required."""


class NonHermitian(MpsRestrictError):
    """Hermitian symmetry check failed beyond tolerance."""


class NotDensityOperator(MpsRestrictError):
    """Input is not positive semi-definite with unit trace within tolerance."""


class NotPSD(MpsRestrictError):
    """Input is not positive semi-definite within tolerance."""


class InvalidDistribution(MpsRestrictError, ValueError):
    """Probability weights are not finite, are negative or do not sum to one
    (a table, a weight vector, a transition matrix); also a ValueError."""


class OutOfRange(MpsRestrictError, ValueError):
    """Argument outside its documented domain (a length, a tolerance, a
    probability, a boundary vector that is not finite of unit norm); also a
    ValueError."""


class DimensionTooSmall(MpsRestrictError):
    """Operation requires dimension >= 2 (or a stated minimum)."""


class ShapeMismatch(MpsRestrictError):
    """Operands have incompatible shapes."""


# ---------------------------------------------------------------- chain / model


class NotLeftNormalized(MpsRestrictError):
    """Kraus family violates sum_x A_x^dag A_x = identity.

    Carries the measured residual so loaders can report it.
    """

    def __init__(self, residual: float, atol: float):
        self.residual = float(residual)
        self.atol = float(atol)
        super().__init__(
            f"Kraus family is not left-normalized: "
            f"||sum A^dag A - I|| = {residual:.3e} exceeds atol {atol:.1e}"
        )


class NonConvergent(MpsRestrictError):
    """Fixed-point extraction failed to produce a valid stationary state."""


# ---------------------------------------------------------------- restriction


class SymbolOutOfRange(MpsRestrictError):
    """Measurement string contains a symbol outside [0, d)."""


class ZeroProbabilityString(MpsRestrictError):
    """Conditioning on an outcome string of (numerically) zero probability."""


class EnumerationTooLarge(MpsRestrictError):
    """d^n exceeds the enumeration guard, or the guard is NaN."""


class GeometryMismatch(MpsRestrictError):
    """Chain geometry does not match the distribution's site count."""


# ---------------------------------------------------------------- gibbs fitting


class RangeError(MpsRestrictError):
    """Site window indices violate 1 <= j <= k <= len."""


class EllOutOfRange(MpsRestrictError):
    """Window size ell outside 1 <= ell <= len - 2."""


class NonPositiveMarginal(MpsRestrictError):
    """A marginal needed in log-domain has a zero (or negative) entry."""


# ---------------------------------------------------------------- purity


class SearchBudgetExceeded(MpsRestrictError):
    """Subspace search exceeded its node budget."""


class FNotContractive(MpsRestrictError):
    """Operator F violates F^dag F <= identity."""


class EvenDimension(MpsRestrictError):
    """Construction defined for odd dimensions only."""


class CompletionFailed(MpsRestrictError):
    """A constructed block column failed its isometry check."""


# ---------------------------------------------------------------- trajectories


class ZeroProbabilityPath(MpsRestrictError):
    """Martingale check requested on a path of zero probability."""


# ---------------------------------------------------------------- internal


class NumericalInconsistency(MpsRestrictError):
    """Two mandatory independent computations of the same quantity disagree.

    Raised e.g. when the singular-value and exterior-square routes to w(N)
    differ beyond 1e-9, or a constructed operator violates its own contract.
    Mapped to CLI exit code 4.
    """
