"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all minksurf errors."""


class DomainError(Error):
    """An elementary function was evaluated outside its domain."""

    def __init__(self, func: str, value: float, requirement: str):
        self.func = func
        self.value = value
        self.requirement = requirement
        super().__init__(f"{func}: argument {value!r} violates {requirement}")


class NotSpacelike(Error):
    """The induced metric is not positive definite at the requested point.

    Carries the point (u, v), both None where only the tangent vectors
    are known, and E and det = EG - F^2 there.
    """

    def __init__(self, u, v, E: float, det: float):
        self.u = u
        self.v = v
        self.E = E
        self.det = det
        head = ("tangent plane not spacelike" if u is None
                else f"not spacelike at (u,v)=({u!r},{v!r})")
        super().__init__(f"{head}: E={E!r}, EG-F^2={det!r}")


class DegenerateFrame(Error):
    """No orthonormal normal frame of signature (1,1) could be built.

    Carries the offending quantity: <nu,nu> of the projected e4, <x,x>
    of the cross product giving n1, or a supplied frame's residual.
    """

    def __init__(self, message: str, quantity: float):
        self.quantity = quantity
        super().__init__(message)


class AdmissibilityError(Error):
    """A profile-function inequality fails somewhere on the requested domain.

    Carries the violated inequality and the offending parameter value.
    """

    def __init__(self, inequality: str, variable: str, value: float):
        self.inequality = inequality
        self.variable = variable
        self.value = value
        super().__init__(f"{inequality} violated at {variable} = {value!r}")


class ParamError(Error):
    """A family parameter is outside its allowed range."""


class CurvatureMismatch(Error):
    """The generating curve's curvature does not match the cone constraint."""

    def __init__(self, max_deviation: float):
        self.max_deviation = max_deviation
        super().__init__(
            f"generating-curve curvature fails the cone constraint; "
            f"max |kappa_bar^2 + 1/(2a)| = {max_deviation:.3e}"
        )


class UsageError(Error):
    """An operation was invoked on an input it is not meant for."""


class SingularProjection(Error):
    """A 3x4 export projection matrix has rank < 3."""


class ExprError(Error):
    """A profile expression failed to parse; carries the source position."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")
