"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ToolkitError):
    """Operands have incompatible or invalid shapes."""


class NotHermitianError(ToolkitError):
    """A matrix required to be hermitian is not, beyond tolerance."""


class NotPSDError(ToolkitError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class ConstraintError(ToolkitError):
    """Supplied decay coefficients violate their defining constraint, or an
    initial state leaves the block-diagonal subspace that the enlarged space
    is evolved on."""


class GridError(ToolkitError):
    """A time grid does not satisfy the uniformity the quadrature requires."""


class NumericsError(ToolkitError):
    """A numerical integrity monitor tripped (e.g. hermiticity drift)."""


class ConfigError(ToolkitError):
    """Base class for scenario configuration problems."""


class ParseError(ConfigError):
    """Scenario text does not conform to the config schema."""


class ValidationError(ConfigError):
    """A parsed scenario fails physical validation."""
