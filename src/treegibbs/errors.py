"""Exception types shared across the package.

``exit_code`` on each class is the exit status of the command-line front
end: 2 (the default) for a bad request, 3 for a well-formed request that is
infeasible or oversize (``NoFeasibleTree``, ``TooLarge``).  The front
end also exits 2 on a bad option or a plain ``ValueError``, and 4
when ``oracle-check`` finds a deviation.
"""


class TreeGibbsError(Exception):
    """Base class for all treegibbs errors."""

    exit_code = 2


class BoundTooSmall(TreeGibbsError, ValueError):
    """Degree/branching bound below the minimum for the ensemble kind."""


class BadEnergyTable(TreeGibbsError, ValueError):
    """Energy table has the wrong length, a non-finite entry or beta * c(k),
    or profile log weights that overflow at the requested N."""


class KindMismatch(TreeGibbsError, ValueError):
    """Operation applied to the wrong ensemble kind."""


class SumMismatch(TreeGibbsError, ValueError):
    """Count vector entries do not sum to the stated total."""


class NoFeasibleTree(TreeGibbsError, ValueError):
    """No tree satisfies the ensemble constraints at this size."""

    exit_code = 3


class OffManifold(TreeGibbsError, ValueError):
    """Frequency vector violates the manifold constraints."""


class BadLabel(TreeGibbsError, ValueError):
    """Code entry outside the valid vertex label range."""


class NotATree(TreeGibbsError, ValueError):
    """Edge list is not a tree (wrong edge count, cycle, or disconnected)."""


class TooLarge(TreeGibbsError, ValueError):
    """Exhaustive enumeration requested beyond the supported size."""

    exit_code = 3
