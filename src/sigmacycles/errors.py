"""Exception types shared across the package."""


class NoEdgesError(ValueError):
    """The hypergraph parameters admit no edges (q < largest part or n < #parts)."""


class ConstructionError(Exception):
    """Base class for constructor refusals: NoCycle or NoRecipe."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NoCycle(ConstructionError):
    """No cycle of the kind asked for exists; the message gives the reason."""


class NoRecipe(ConstructionError):
    """No recipe covers these parameters; a cycle may still exist."""


class BudgetExceeded(RuntimeError):
    """A brute-force oracle's budget was exhausted."""


class CertificateParseError(ValueError):
    """A certificate file failed validation."""
