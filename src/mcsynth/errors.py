"""Exception types shared across the package."""


class McsynthError(Exception):
    """Base class for all mcsynth errors."""


class SketchError(McsynthError):
    """A sketch document or specification file is malformed.

    ``location`` names the offending field or state so diagnostics stay
    actionable without a stack trace.
    """

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


class PropertyError(SketchError):
    """A property expression does not match the grammar or fails to resolve."""


class ResourceCapError(McsynthError):
    """A configured resource cap was exceeded (member count, actions, states)."""


class InvalidBoundsError(McsynthError):
    """Bounds are inconsistent: a quotient's upper bound with its lower bound."""
