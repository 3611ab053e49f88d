"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: config problems -> 1, numerical or
domain failures -> 2, verification failures -> 3.
"""


class SpikelabError(Exception):
    """Base class for all package errors."""


class ConfigError(SpikelabError):
    """Invalid user configuration (schema violation, bad recipe, ...)."""


class DomainError(SpikelabError):
    """Argument outside the mathematical domain of an operation."""


class NumericalError(SpikelabError):
    """A solver failed to bracket, converge, or stay away from a pole."""


class SubcriticalError(DomainError):
    """A population spike sits at or below the detachment threshold."""

    def __init__(self, value, threshold):
        self.value = float(value)
        self.threshold = float(threshold)
        super().__init__(
            f"spike {self.value:.6g} is not strictly above the "
            f"detachment threshold {self.threshold:.6g}"
        )


class DegenerateSpectrumError(SpikelabError):
    """Eigenvalue ratio statistics hit a zero denominator."""


class CapabilityError(SpikelabError):
    """Requested an analytic quantity a sampler-only noise law cannot provide."""


class VerificationFailure(SpikelabError):
    """A verification battery ran and one or more of its checks failed."""
