"""Exception types shared across the package."""


class IdjcError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidDim(IdjcError):
    """Requested Fock truncation dimension is unusable."""


class TruncationTooSmall(IdjcError):
    """The truncated basis cannot hold the requested state or series accurately."""


class InvalidCat(IdjcError):
    """Superposition parameters describe the null vector (r = -1 with alpha = 0)."""


class WeightMismatch(IdjcError):
    """Mixture weights are negative or do not sum to one."""


class DimMismatch(IdjcError):
    """Operands live in Fock spaces of different dimension."""


class TailLeak(IdjcError):
    """Initial state carries too much population at the top of the truncated basis."""


class SelfCheckFailed(IdjcError):
    """A scenario's numeric output disagreed with its closed-form cross check."""


class ConfigError(IdjcError):
    """Bad scenario config: one line per broken rule, range lines before unread-key lines."""

    def __init__(self, field_errors):
        self.field_errors = list(field_errors)
        super().__init__("; ".join(self.field_errors))
