"""Exception taxonomy shared by all gbflab modules.

The CLI maps these onto exit statuses: parameter problems exit 2,
numerical-integrity failures exit 4.
"""


class GbflabError(Exception):
    """Base class for all gbflab errors."""


class ParameterError(GbflabError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedConfigurationError(ParameterError):
    """The requested operation needs a configuration the model cannot provide
    (e.g. limited feedback with |rho_z| < 1)."""


class DegenerateMessageError(ParameterError):
    """A message alphabet with a single point has zero variance; the power
    normalization of the first two channel uses divides by it."""


class NumericalIntegrityError(GbflabError, RuntimeError):
    """An internal quantity left its mathematically guaranteed range.

    This signals an implementation or conditioning bug, not a user error.
    """


class NoFixedPointError(NumericalIntegrityError):
    """The root the solver found in [0, 1] fails the fixed-point cubic's
    certificate: its residual exceeds CUBIC_RESIDUAL_ACCEPT times the
    coefficients' scale."""
