"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, resource-budget violations with 3. Statistical test failures are
not exceptions; they are reported results (exit code 1 at the CLI).
"""

__all__ = [
    "ConfigurationError",
    "UnsupportedKernelError",
    "DegenerateNormalizationError",
    "ResourceBudgetError",
    "EnumerationSizeError",
]


class ConfigurationError(ValueError):
    """Invalid parameters, unusable kernel/distribution combination, or
    malformed config input."""


class UnsupportedKernelError(ConfigurationError):
    """The requested kernel name is not a built-in kernel."""


class DegenerateNormalizationError(ConfigurationError):
    """theta^2 = 0: the normalized statistic is undefined (zero kernel,
    or p = 0)."""


class ResourceBudgetError(RuntimeError):
    """The requested computation exceeds a configured or structural
    resource budget."""


class EnumerationSizeError(ResourceBudgetError):
    """Exhaustive enumeration would visit too many outcomes; the message
    records the computed state-space size."""
