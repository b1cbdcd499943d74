"""Exception hierarchy shared by all knotfoam modules."""


class KnotfoamError(Exception):
    """Base class for all errors raised by this package; every subclass but
    ``TooLarge`` (exit 3) derives from ``InputError`` or ``InternalError``."""


class InputError(KnotfoamError):
    """Bad input; the command line exits 2 with a one-line message."""


class InternalError(KnotfoamError):
    """A broken internal invariant, a bug; the command line exits 4."""


class NonExactDivision(InternalError):
    """Division by a power of (X1 - X2) left a nonzero remainder."""


class MalformedFoam(InputError):
    """A foam violates a structural invariant."""


class NonBipartiteBinding(InternalError):
    """The binding adjacency graph of a foam admits no proper 2-coloring."""


class OddEuler(InternalError):
    """A colored subsurface has odd Euler characteristic."""


class InvalidFace(InternalError):
    """A face descriptor does not match the graph it is applied to."""


class ReductionStuck(InternalError):
    """Vertices remain after the last red edge was removed."""


class ParseError(InputError):
    """Input text does not match the expected grammar."""


class InvalidDiagram(InputError):
    """A crossing list fails the arc-multiplicity or orientation checks."""


class InvalidBraid(InputError):
    """A braid word is not realizable on the given number of strands."""


class InvalidSite(InputError):
    """A Reidemeister move site does not exist in the diagram."""


class TooLarge(KnotfoamError):
    """A size limit is exceeded: a diagram's crossings or the relation
    harness's dots."""


class NotAComplex(InternalError):
    """Consecutive differentials do not compose to zero."""


class NotAKnot(InputError):
    """An operation defined only for knots received a multi-component link."""


class NotACycle(InternalError):
    """A chain expected to be a cycle is not killed by the differential."""


class RankMismatch(InternalError):
    """A homology rank violates the degeneration theorem."""


class PropositionViolated(InternalError):
    """An internal structural fact failed; indicates a bug, not bad input."""
