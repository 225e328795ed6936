"""Error taxonomy shared by all modules.

Every failure the library can raise derives from :class:`DircurvError` and
carries a stable machine-readable ``code`` plus an optional ``location``
(a source position, an index, or a printed subtree — whatever locates the
problem).  The two intermediate bases split failures the way the CLI maps
them to exit codes: bad input (exit 2) versus numerical breakdown (exit 3).
"""

from __future__ import annotations


class DircurvError(Exception):
    """Base class for all library errors."""

    code = "error"
    exit_code = 1

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.message = message
        self.location = location

    def as_json_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "location": self.location}


class InputError(DircurvError):
    """The caller supplied something invalid (bad text, wrong point, bad index)."""

    code = "input_error"
    exit_code = 2


class NumericalError(DircurvError):
    """A computation could not be completed at the required accuracy."""

    code = "numerical_error"
    exit_code = 3


# --- expression language -------------------------------------------------

class _PositionError(InputError):
    """An input error at a 1-based character position of the expression text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})", location=position)
        self.position = position


class ExpressionSyntaxError(_PositionError):
    code = "syntax_error"


class UnknownVariableError(_PositionError):
    code = "unknown_variable"

    def __init__(self, index: int | None, n: int, position: int):
        """``index`` is None for one too long to convert; str() raises ValueError
        past 4,300 digits, so neither it nor a huge n is printed."""
        var = f"variable x{index}" if index is not None else "a variable with a huge index"
        last = f"x{n}" if abs(n) < 1e9 else "xn, n of magnitude 1e9 or more"
        super().__init__(f"{var} is outside x1..{last}", position)
        self.index = index


class NonIntegerExponentError(_PositionError):
    code = "non_integer_exponent"


class ExpressionTooDeepError(_PositionError):
    """The text nests deeper than the parser's documented depth limit."""

    code = "expression_too_deep"

    def __init__(self, limit: int, position: int):
        super().__init__(f"expression nests deeper than {limit} levels", position)


class DivisionByZeroError(NumericalError):
    code = "division_by_zero"

    def __init__(self, subtree: str):
        super().__init__(f"division by zero while evaluating {subtree!r}", location=subtree)


# --- linear algebra -------------------------------------------------------

class DimensionMismatchError(InputError):
    code = "dimension_mismatch"


class RankDeficientError(NumericalError):
    code = "rank_deficient"

    def __init__(self, index: int):
        super().__init__(f"input vector {index} is in the span of its predecessors", location=index)
        self.index = index


class NotSymmetricError(InputError):
    code = "not_symmetric"


class NoConvergenceError(NumericalError):
    """An iterative LAPACK routine (the symmetric eigensolver) did not converge."""

    code = "no_convergence"


# --- body ------------------------------------------------------------------

class InvalidBodyError(InputError):
    code = "invalid_body"


class NotOnBoundaryError(InputError):
    code = "not_on_boundary"


class NonSmoothPointError(InputError):
    code = "non_smooth_point"


class OrientationViolationError(InputError):
    code = "orientation_violation"


class RayEscapesError(NumericalError):
    code = "ray_escapes"


class NonFiniteValueError(NumericalError):
    """f, its derivatives, the pairing or the dual vector overflowed at the
    point, or a matrix handed to the eigensolver has an inf or nan entry."""

    code = "non_finite_value"


# --- curvature ---------------------------------------------------------------

class ZeroDirectionError(InputError):
    code = "zero_direction"


class NotTangentError(InputError):
    code = "not_tangent"


class NegativeCurvatureError(InputError):
    code = "negative_curvature"


class NotInteriorError(InputError):
    code = "not_interior"


# --- goldman -----------------------------------------------------------------

class InvalidIndexError(InputError):
    code = "invalid_index"


class DegenerateTangentError(NumericalError):
    code = "degenerate_tangent"


# --- oracle ------------------------------------------------------------------

class NoBoundaryIntersectionError(NumericalError):
    code = "no_boundary_intersection"


class DiscontinuousFieldError(NumericalError):
    """A sign change of f along a section circle closes on a point outside the
    boundary band: f is not continuous there (a pole, say), which breaks the
    standing hypothesis that {f = 0} is the boundary within delta."""

    code = "discontinuous_field"


class UnresolvedCrossingError(NumericalError):
    """A sign change of a field with no division (a polynomial, hence
    continuous) along a section circle closes on a point outside the boundary
    band: the field is too steep there for float angles to resolve its zero."""

    code = "unresolved_crossing"


class UnresolvedRadiusError(NumericalError):
    """A sampling radius is too small for its drop to stand above the root
    tolerance and the rounding of the boundary point's coordinates."""

    code = "unresolved_radius"
