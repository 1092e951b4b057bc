"""Exception types shared across the package."""


class GraftLabError(ValueError):
    """Base class for domain errors."""


class GridError(GraftLabError):
    """Lattice too small or inconsistent for the requested estimate."""


class NotSensePreservingError(GraftLabError):
    """A sampled map has |mu| >= 1 somewhere at the current resolution."""


class ShortnessError(GraftLabError):
    """A length bound exceeds the short-curve threshold in force."""


class GeometryError(GraftLabError):
    """A geometric precondition fails (annulus exits collar, moduli too small, ...)."""


class UnderflowError(GraftLabError):
    """A propagated length bound fell below the smallest normal float64."""


class ScenarioError(GraftLabError):
    """A scenario file, map spec or lattice flag breaks the input contract."""
