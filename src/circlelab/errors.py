"""Exception types shared across the package."""


class CirclelabError(Exception):
    """Base class for all package-specific errors."""


class DegeneratePotentialError(CirclelabError, ValueError):
    """Potential violates a structural requirement (e.g. no nonzero harmonic)."""


class DegenerateCriticalPointError(CirclelabError, ValueError):
    """No derivative up to the allowed order separates from zero at a root."""


class ZeroCriticalValueError(CirclelabError, ValueError):
    """A critical point sits exactly on the zero level of the potential."""


class NoValidMarginError(CirclelabError, ValueError):
    """The dyadic search for the level margin hit its floor without success."""


class MonotonicityError(CirclelabError, ValueError):
    """A quantity required to be monotone on an interval is not."""


class UnreachableTargetError(CirclelabError, ValueError):
    """Control target violates the open-interval support condition."""


class PlanningError(CirclelabError, RuntimeError):
    """Control target satisfies the support condition but the constructive
    planner cannot realize it within the given horizon."""


class BinMismatchError(CirclelabError, ValueError):
    """Two histograms with different bin structures were combined."""


class RunawayError(CirclelabError, RuntimeError):
    """A simulation ran away: a velocity-jump path exceeded its event cap,
    or a diffusion replica's x or u turned non-finite."""


class ConfigError(CirclelabError, ValueError):
    """Scenario or potential configuration is malformed."""


class HypothesisWarning(UserWarning):
    """A stated hypothesis of a quantitative bound is violated; results are
    still produced but the bound need not hold."""
