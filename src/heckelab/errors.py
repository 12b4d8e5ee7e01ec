"""Exception hierarchy shared by all heckelab modules."""


class HeckeLabError(Exception):
    """Base class for all errors raised by this package."""


class NotElliptic(HeckeLabError):
    """Matrix has no unique fixed point in the upper half-plane."""


class PrecisionInsufficient(HeckeLabError):
    """A numeric test landed in the ambiguous zone between tol/10 and tol."""


class PrecisionExhausted(HeckeLabError):
    """q-series depth or float precision too small to certify a result."""


class LevelTooLarge(HeckeLabError):
    """Requested level exceeds the configured enumeration bound."""


class IncompatibleLevel(HeckeLabError):
    """Level is not a multiple of the level forced by the group data."""


class BadDeterminant(HeckeLabError):
    """Matrix mod N does not have determinant 1."""


class NotSquarefree(HeckeLabError):
    """Coset decomposition requested for a non-squarefree determinant."""


class IllConditioned(HeckeLabError):
    """Numeric root finding produced residuals above tolerance."""


class NoConvergence(HeckeLabError):
    """Iteration failed to converge to the requested tolerance."""


class BadReduction(HeckeLabError):
    """Prime of bad reduction passed to a point-counting routine."""


class NotGeneratingModP(HeckeLabError):
    """Lifting check invoked with matrices that do not generate mod p."""


class NotSubdirect(HeckeLabError):
    """Goursat analysis requires surjection onto both factors."""


class EvidenceInsufficient(HeckeLabError):
    """No image estimate is available at the requested level."""


class OrderAmbiguous(HeckeLabError, ArithmeticError):
    """Baby-step giant-step point counting left more than one group order
    in the Hasse interval, above the range of the exhaustive fallback."""
