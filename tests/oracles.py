"""Brute-force reference laws for the two processes, used only by tests.

- `analytic_escape_probability`: exit probabilities of the frozen-drive
  diffusion dX = dB - drive F'(X) dt from its scale function, by scipy's
  adaptive quadrature.
- `jump_time_cdf_oracle`: the CDF of the velocity-jump process's first
  jump time, by composite Simpson quadrature of its total rate.
"""

import math
from typing import Optional

import numpy as np

from circlelab.angles import wrap
from circlelab.errors import MonotonicityError
from circlelab.potential import PeriodicPotential

_MONOTONE_GRID = 512


def analytic_escape_probability(potential: PeriodicPotential, drive: float,
                                x0: float, x: float, x1: float,
                                orientation: str = "printed") -> float:
    """Exit probability of dX = dB - drive * F'(X) dt between x0 and x1.

    The arc runs from x0 to x1 in the positive direction and F must be
    monotone on it (checked on a grid).  The scale density is
    exp(2 * drive * F); with p the scale function, the "printed"
    orientation returns (p(x1) - p(x)) / (p(x1) - p(x0)), which is the
    probability of reaching x0 before x1 (it is 1 at x = x0 and 0 at
    x = x1).  orientation="escape" returns the complement, the
    probability of reaching x1 first.  Quadrature is adaptive with
    relative tolerance 1e-10 on the integrand shifted by the arc maximum
    of F, so the exponentials never overflow.  It needs scipy, which
    only the tests install.
    """
    from scipy.integrate import quad

    if orientation not in ("printed", "escape"):
        raise ValueError("orientation must be 'printed' or 'escape'")
    if drive < 0.0:
        raise ValueError("drive must be nonnegative")
    arc = float(wrap(x1 - x0))
    if arc == 0.0:
        raise ValueError("x0 and x1 must be distinct")
    sx = float(wrap(x - x0))
    if sx > arc:
        raise ValueError("x must lie on the arc from x0 to x1")
    grid = np.linspace(0.0, arc, _MONOTONE_GRID + 1)
    vals = potential.value(x0 + grid)
    diffs = np.diff(vals)
    tol = 1e-10 * max(1.0, potential.coefficient_bound_derivative(1))
    if not (np.all(diffs >= -tol) or np.all(diffs <= tol)):
        raise MonotonicityError(
            "potential is not monotone on the arc from x0 to x1")
    if sx == 0.0:
        return 1.0 if orientation == "printed" else 0.0
    if sx == arc:
        return 0.0 if orientation == "printed" else 1.0
    shift = float(np.max(vals))
    two_m = 2.0 * float(drive)

    def integrand(s):
        return math.exp(two_m * (potential.value_s(x0 + s) - shift))

    i_low, _ = quad(integrand, 0.0, sx, epsabs=0.0, epsrel=1e-10, limit=200)
    i_high, _ = quad(integrand, sx, arc, epsabs=0.0, epsrel=1e-10, limit=200)
    printed = i_high / (i_low + i_high)
    return printed if orientation == "printed" else 1.0 - printed


def jump_time_cdf_oracle(potential: PeriodicPotential, lam: float, x0: float,
                         y: int, u0: Optional[float], grid, *,
                         g: Optional[float] = None,
                         subintervals: int = 10_000) -> np.ndarray:
    """Brute-force CDF of the first jump time on the given time grid.

    Integrates the total rate lambda + (y * u(s) * F'(x0 + y s))_+ by
    composite Simpson quadrature with `subintervals` subintervals per grid
    cell and returns 1 - exp(-Lambda) at the grid points.  u(s) is the
    closed-form interaction from u0, or the constant frozen drive g if
    given.  lam = 0 is allowed here (pure landscape clock), unlike the
    samplers.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if y not in (-1, 1):
        raise ValueError("velocity y must be -1 or +1")
    if (u0 is None) == (g is None):
        raise ValueError("provide exactly one of u0 or g")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if grid[0] < 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing and nonnegative")
    if subintervals < 2 or subintervals % 2:
        raise ValueError("subintervals must be even and at least 2")

    if g is None:
        g0 = potential.antiderivative_s(x0)

        def interaction(s):
            return u0 + y * (potential.antiderivative(x0 + y * s) - g0)

    else:
        gv = float(g)

        def interaction(s):
            return np.full(np.shape(s), gv)

    def total_rate(s):
        r = y * np.asarray(interaction(s)) * potential.derivative(x0 + y * s)
        return lam + np.maximum(r, 0.0)

    edges = np.concatenate([[0.0], grid]) if grid[0] > 0.0 else grid
    lam_cum = np.zeros(edges.size)
    for i in range(edges.size - 1):
        a, b = edges[i], edges[i + 1]
        pts = np.linspace(a, b, subintervals + 1)
        vals = total_rate(pts)
        h = (b - a) / subintervals
        integral = (h / 3.0) * (vals[0] + vals[-1]
                                + 4.0 * vals[1:-1:2].sum()
                                + 2.0 * vals[2:-1:2].sum())
        lam_cum[i + 1] = lam_cum[i] + integral
    if grid[0] > 0.0:
        lam_cum = lam_cum[1:]
    return 1.0 - np.exp(-lam_cum)
