"""Exception hierarchy shared by all modules."""


class LatticeCurveError(Exception):
    """Base class for every error raised by this package."""


class DegeneratePolygon(LatticeCurveError):
    """Operation requires a two-dimensional polygon."""


class ZeroPolynomial(LatticeCurveError):
    """Operation undefined for the zero polynomial."""


class MonomialInput(LatticeCurveError):
    """Irreducibility certificates are not defined for monomials."""


class DegenerateInput(LatticeCurveError):
    """A side of a resultant is constant in t."""


class ConstantMap(LatticeCurveError):
    """Parametrization is constant, nothing to implicitize."""


class SharedRoot(LatticeCurveError):
    """Numerator and denominator of a parametrization share a factor."""


class RangeError(LatticeCurveError):
    """Parameter outside the admissible range."""


class NoParametrization(LatticeCurveError):
    """No parametrization is available for this family."""


class HypothesisFailure(LatticeCurveError):
    """A hypothesis of the multiplicity criterion is violated.

    The message names the failed hypothesis.
    """


class ZeroK(LatticeCurveError):
    """k = 0 is excluded."""


class PreconditionFailure(LatticeCurveError):
    """A named precondition of a Seshadri estimate failed."""


class EmptySystem(LatticeCurveError):
    """The prescribed linear system is empty."""


class EmptyList(LatticeCurveError):
    """Nonempty input required."""


class EmptyAfterFilter(LatticeCurveError):
    """No entries left after filtering."""


class ParseError(LatticeCurveError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
