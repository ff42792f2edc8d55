"""Exact exit probabilities of the frozen-drive velocity-jump process.

With the drive frozen at g, the velocity y flips at rate
r_y(x) = lam + (y g F'(x))_+.  Let h_y(x) be the probability that the
process started at (x, y) leaves the lifted interval (a, b) through b.
The generator of the piecewise-deterministic process (Davis 1984) gives
y h_y' = r_y (h_y - h_{-y}), so D = h_+ - h_- solves D' = g F' D and
D(x) = D(a) e^{g (F(x) - F(a))}.  The boundary values h_-(a) = 0 and
h_+(b) = 1 then fix

    D(a)   = 1 / (1 + int_a^b r_+(z) e^{g (F(z) - F(a))} dz),
    h_+(x) = D(a) (1 + int_a^x r_+(z) e^{g (F(z) - F(a))} dz),
    h_-(x) = h_+(x) - D(x).

At g = 0 this is the exit law of Kac's (1974) telegraph process.  Each
probability costs one composite Simpson quadrature of a continuous
integrand; no scipy.
"""

import math

import numpy as np


def _simpson(f, lo, hi, n):
    z = np.linspace(lo, hi, n + 1)
    v = f(z)
    return (hi - lo) / (3.0 * n) * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum()
                                    + 2.0 * v[2:-1:2].sum())


def exit_upper_probability(potential, lam, g, a, b, x, y, *, n=20_000):
    """Probability that the frozen-drive process started at (x, y), with
    a < x < b in lifted coordinates, leaves (a, b) through b."""
    if not a < x < b:
        raise ValueError("need a < x < b")
    if y not in (-1, 1):
        raise ValueError("velocity y must be -1 or +1")
    f_a = potential.value_s(a)

    def integrand(z):
        rate = lam + np.maximum(g * potential.derivative(z), 0.0)
        return rate * np.exp(g * (potential.value(z) - f_a))

    head = _simpson(integrand, a, x, n)
    d_a = 1.0 / (1.0 + head + _simpson(integrand, x, b, n))
    h_plus = float(d_a * (1.0 + head))
    if y == 1:
        return h_plus
    return h_plus - d_a * math.exp(g * (potential.value_s(x) - f_a))


def escape_probabilities(potential, geometry, M, lam):
    """Exact escape probability of each start configuration of
    `stats.escape_hits(process="pdmp")`, in its order: per well, the left
    mid-level point moving left, then the right one moving right."""
    out = []
    for well in geometry.wells:
        x_star = well.minimum.x
        (b_l, b_r), (c_l, c_r) = well.mid_points, well.inner_interval
        out.append(1.0 - exit_upper_probability(potential, lam, M, c_l,
                                                x_star, b_l, -1))
        out.append(exit_upper_probability(potential, lam, M, x_star, c_r,
                                          b_r, 1))
    return out
