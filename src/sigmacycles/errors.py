"""Exception types shared across the package."""


class NoEdgesError(ValueError):
    """The hypergraph parameters admit no edges (q < largest part or n < #parts)."""


class ConstructionError(Exception):
    """Base class for constructor failures."""

    @property
    def name(self) -> str:
        return type(self).__name__


class OnlyOneEdge(ConstructionError):
    """Rectangular sigma with q equal to the part size and n equal to the
    number of parts: the hypergraph has a single edge."""


class ConstructionUnsupported(ConstructionError):
    """The recipe does not produce a certificate that passes verification
    for these parameters."""


class NTooSmall(ConstructionError):
    """The construction needs strictly more classes than parts."""


class QNotRepresentable(ConstructionError):
    """q has no representation x*r + y*(r+1) with x, y >= 0."""


class DegenerateIntersection(ConstructionError):
    """The would-be intersection profile contains a zero."""


class KOutOfRange(ConstructionError):
    """k outside [2, s]."""


class BudgetExceeded(RuntimeError):
    """A brute-force oracle's budget was exhausted."""


class CertificateParseError(ValueError):
    """A certificate file failed validation."""
