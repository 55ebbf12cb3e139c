"""Exception types raised by the toolkit.

Everything derives from :class:`ToolkitError` so callers can catch the whole
family with one clause.  The names mirror the failure they report; only
:class:`HypothesisFailed` (which hypothesis of the rigidity statement was
violated) and :class:`NotCompletable` (the two numbers the feasibility
decision rests on) carry state beyond the message.  :class:`NotCP` is a
:class:`NotPSD`: a map is CP iff its Choi matrix is PSD, so a caller that
catches the matrix error also catches the map error.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianInput(ToolkitError):
    """A matrix that must be Hermitian is too far from its adjoint."""


class DimensionMismatch(ToolkitError):
    """Operands have incompatible shapes or live on different algebras."""


class NotPSD(ToolkitError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NotCP(NotPSD):
    """A map required to be completely positive has a non-PSD Choi matrix."""


class ZeroMap(ToolkitError):
    """The zero map was passed where a nonzero map is required."""


class NotDominated(ToolkitError):
    """The second map is not dominated by the first in the CP order."""


class InputNotReduced(ToolkitError):
    """An internal consistency check of the quasi-purity pipeline failed.

    Raised only when a step's own precondition breaks: a vector the
    pipeline has shown to be a witness fails the rank window.
    """


class NotCompletable(ToolkitError):
    """The partial data admits no positive (or CP) completion.

    Attributes:
        compression_min_eigenvalue: smallest eigenvalue of the known
            compression ``A`` (of its Hermitian part, for partial CP maps).
        kernel_leak: ``||C|_{ker A}||``, kernel taken inside ``ran P``.
    """

    def __init__(self, compression_min_eigenvalue: float, kernel_leak: float,
                 message: str = "the data admits no positive completion"):
        self.compression_min_eigenvalue = compression_min_eigenvalue
        self.kernel_leak = kernel_leak
        super().__init__(message)


class MalformedPartialMap(ToolkitError):
    """The partial map's blocks do not lie in the stated column space."""


class SeedNotACompletion(ToolkitError):
    """The seed map does not complete the given partial map."""


class RNotProjection(ToolkitError):
    """An operator required to be an orthogonal projection is not one."""


class WitnessInvalid(ToolkitError):
    """The supplied vector does not witness failure of quasi-purity."""


class MalformedDocument(ToolkitError):
    """A JSON document does not match the expected schema."""


class HypothesisFailed(ToolkitError):
    """A hypothesis of the rigidity statement does not hold.

    Attributes:
        hypothesis: short tag naming the violated hypothesis, one of
            ``"quasi-purity"``, ``"unit-values"``, ``"r-equivalence"``,
            ``"vanishes-on-r"``, ``"reference-map"``.
    """

    def __init__(self, hypothesis: str, message: str = ""):
        self.hypothesis = hypothesis
        super().__init__(message or f"hypothesis violated: {hypothesis}")
