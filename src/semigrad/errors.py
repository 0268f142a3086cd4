"""Exception types raised across the package."""


class SemigradError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SemigradError):
    """Array or coefficient dimensions are inconsistent with the model."""


class MissingDerivative(SemigradError):
    """A required coefficient derivative callback was not supplied."""


class MissingGeometry(SemigradError):
    """A manifold quantity (projection, Ricci, transport) is unavailable."""


class MissingCodifferential(SemigradError):
    """A form was used in a line integral without its codifferential."""


class Degenerate(SemigradError):
    """The diffusion matrix has no usable right inverse at some point."""


class AllPathsBlewUp(SemigradError):
    """Every simulated path hit the blow-up radius; no estimate exists."""


class UnboundedPotential(SemigradError):
    """The potential exceeded its declared upper bound along a path."""


class EmptyBin(SemigradError):
    """No paths landed inside the conditioning bin."""


class NotLieGroup(SemigradError):
    """A Lie-group estimator was called on a non-group model."""


class NotClosed(SemigradError):
    """A form semigroup estimator requires a closed form."""


class NotGradientSystem(SemigradError):
    """A q-form estimator requires a gradient h-Brownian system."""


class DegreeMismatch(SemigradError):
    """Form degree does not match the number of supplied vectors."""


class UnsupportedDegree(SemigradError):
    """Form degree or ambient dimension outside the supported range."""


class UnsupportedModel(SemigradError):
    """The operation is only defined for a restricted model class."""


class ZeroDirection(SemigradError):
    """A direction vector that must be nonzero was zero."""


class UnknownScenario(SemigradError):
    """Scenario id not present in the registry."""


class UnknownEstimator(SemigradError):
    """Estimator id not present in the registry."""


class InvalidConfig(SemigradError):
    """Experiment configuration failed validation."""
