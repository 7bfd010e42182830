"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when a scenario, parameter block, or input file is invalid."""


class DependencyTableError(ConfigurationError):
    """Raised for ill-formed dependency tables (e.g. zero weight sum for a pair)."""
