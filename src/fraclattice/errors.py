"""Exception types shared across the package."""


class FracLatticeError(Exception):
    """Base class for all package-specific errors."""


class OffGridError(FracLatticeError, ValueError):
    """A time or duration is not a whole number of steps; a ``ValueError`` too."""


class WindowError(FracLatticeError):
    """A requested shift or evaluation leaves the sampled time window."""


class EmbeddingError(FracLatticeError):
    """Circulant embedding produced a significantly negative eigenvalue."""


class NonlinearityOverflowError(FracLatticeError):
    """Componentwise nonlinearity produced a non-finite value."""


class BlowUpError(FracLatticeError):
    """Solver state norm exceeded the blow-up guard."""


class InsufficientHorizonError(FracLatticeError):
    """The sampled past window is too short for the requested truncation."""


class ConfigError(FracLatticeError):
    """Configuration failed validation; carries every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
