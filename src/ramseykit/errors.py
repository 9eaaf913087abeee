"""Exception types shared across the package."""


class RamseykitError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(RamseykitError):
    """A text payload (graph6 line, edge list) failed to parse."""


class InvalidVertex(RamseykitError):
    """A vertex id is outside the graph's 0..n-1 range."""


class CertificateError(RamseykitError):
    """A certificate failed its final check before being returned: an
    internal fault, never a property of the input."""


class EnumerationTruncated(RamseykitError):
    """A copy enumeration hit its budget before the answer was decided."""


class IsDegenerate(RamseykitError):
    """Core extraction was asked for a graph whose blocks all fit the pattern."""


class NotDegenerate(RamseykitError):
    """The certifying algorithm needs a pattern-degenerate target graph."""


class NotApplicable(RamseykitError):
    """A construction hypothesis fails (some forbidden graph is degenerate)."""


class ParamOutOfRange(RamseykitError):
    """A numeric parameter violates its documented range."""


class SubsetSpaceTooLarge(RamseykitError):
    """Exact density check over all subsets would exceed the enumeration cap."""


class TooLarge(RamseykitError):
    """Input exceeds the size cap of an exhaustive routine."""


class UnsupportedPattern(RamseykitError):
    """The pattern graph is outside the supported class for this operation."""
