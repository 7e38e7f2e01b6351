"""Exception types shared across the package."""

__all__ = ["KickscopeError", "DomainError", "ConfigurationError", "EmptyBranchError"]


class KickscopeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KickscopeError, ValueError):
    """A physical parameter is outside its allowed domain."""


class ConfigurationError(KickscopeError, ValueError):
    """A grid, geometry, or run configuration is inconsistent."""


class EmptyBranchError(KickscopeError):
    """An operation was asked for on a branch with zero probability."""
