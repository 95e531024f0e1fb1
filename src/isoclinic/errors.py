"""Exception types shared across the package."""


class IsoclinicError(Exception):
    """Base class for all package errors."""


class DimensionError(IsoclinicError):
    """Incompatible or unsupported dimensions."""


class FrameError(IsoclinicError, ValueError):
    """Vectors are not what the call needs: an orthonormal frame or a unit
    vector of the subspace.

    Also a ValueError, which these checks raised before this class existed.
    """


class StructureError(IsoclinicError, ValueError):
    """Coefficients that define no compatible structure (not unit) or no
    admissible basis (not a 3 x 3 rotation in SO(3)).

    Also a ValueError, which these checks raised before this class existed.
    """


class RankDeficiencyError(IsoclinicError):
    """Spanning set is numerically rank deficient.

    Carries the rank that was actually detected.
    """

    def __init__(self, detected_rank: int, expected: int):
        self.detected_rank = detected_rank
        self.expected = expected
        super().__init__(
            f"rank-deficient spanning set: detected rank {detected_rank}, "
            f"got {expected} vectors"
        )


class NotIsoclinicError(IsoclinicError):
    """Subspace failed an isoclinicity gate.

    `witness` names the compatible structure (coefficient triple) whose
    pair test failed, `deviation` the measured sup-norm defect.
    """

    def __init__(self, message: str, witness=None, deviation: float | None = None):
        self.witness = witness
        self.deviation = deviation
        super().__init__(message)


class DegenerateChainError(IsoclinicError):
    """Equivalent chain expressions disagree beyond tolerance."""


class FalsificationError(IsoclinicError):
    """A theorem-mandated identity failed beyond tolerance.

    Raised instead of silently absorbing the defect: it means either the
    input is not what it claims to be or numerics broke down.
    """


class InfeasibleParametersError(IsoclinicError):
    """Requested generator parameters admit no subspace."""


class DocumentError(IsoclinicError):
    """Malformed subspace document; message is path-qualified."""
