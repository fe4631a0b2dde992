"""Exception hierarchy shared by all conekit modules."""


class ConekitError(Exception):
    """Base class for all library errors."""


class ExactBackend(ConekitError):
    """A tolerance-based operation was invoked on exact rationals."""


class DimensionMismatch(ConekitError):
    """Vector/matrix dimensions are incompatible."""


class ConeMismatch(ConekitError):
    """Two formal differences live over different cones."""


class NotMember(ConekitError):
    """A vector expected to belong to a cone does not."""


class OutsideCone(NotMember):
    """A norm was evaluated outside its nonnegativity cone."""


class NotCausal(ConekitError):
    """A vector expected to be causal has negative self-inner-product."""


class NotFutureCausal(ConekitError):
    """A vector expected in the causal future is not."""


class NotLorentzian(ConekitError):
    """A bilinear form required to be Lorentzian is not."""


class DependentBasis(ConekitError):
    """A supposed basis is linearly dependent."""


class UnsupportedFamily(ConekitError):
    """The requested operation is not available for this norm/cone family."""


class Infeasible(ConekitError):
    """A decomposition x = u - v with u, v in the cone does not exist."""


class DimTooLarge(ConekitError):
    """An enumeration was requested above its cap (dimension or subset count)."""


class BallNotContained(ConekitError):
    """The ball around the interior candidate leaves the cone."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PreconditionFailed(ConekitError):
    """A caller-checked precondition does not hold."""


class ParseError(ConekitError):
    """A scenario file does not match the expected schema."""
