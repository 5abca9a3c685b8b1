"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter violates its domain (negative variance, bad geometry, ...)."""
