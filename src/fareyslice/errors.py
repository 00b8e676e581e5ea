"""Exception types shared across the package."""


class FareySliceError(Exception):
    """Base class for all package-specific errors."""


class NotNeighbours(FareySliceError):
    """The operation requires a Farey neighbour pair (|ps - qr| = 1)."""


class OutOfDomain(FareySliceError):
    """A slope left the working range [0, 1] plus the formal vertex 1/0."""


class NoParents(FareySliceError):
    """0/1 and 1/0 sit at the top of the tree and have no parent pair."""


class FormalVertex(FareySliceError):
    """The formal vertex 1/0 has no word; its trace value is axiomatic."""


class ReductionFailed(FareySliceError):
    """Cyclic reduction of a word prefix did not collapse to one letter."""


class SingularParameter(FareySliceError):
    """Closed form evaluated at a degenerate parameter (z in {0, 4})."""


class DegenerateEigenvalues(FareySliceError):
    """Equal transition eigenvalues; caller should fall back to the recurrence."""


class ZeroDivisor(FareySliceError):
    """A required exact inverse does not exist in the coefficient ring."""


class DegreeOverflow(FareySliceError):
    """Coefficients, or the polynomial's values where its roots are sought,
    exceed double range; root finding would be meaningless."""


class RouteMismatch(FareySliceError):
    """Two independent routes to the same result disagree."""


class NotASquare(FareySliceError):
    """An integer expected to be a perfect square was not."""
