"""Geometry helpers for angles and arc subsets of the circle.

Angles live on [0, 2*pi). Arcs are closed and oriented counterclockwise;
an arc may wrap through zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap(x):
    """Reduce an angle (scalar or array) to [0, 2*pi).

    Plain remainder can round up to exactly 2*pi (e.g. for a tiny
    negative input); that endpoint is folded back to 0.  A float takes
    Python's %, which is numpy's remainder bit for bit and ~30x cheaper
    on one number.
    """
    if isinstance(x, float):
        r = float(x) % TWO_PI
        return 0.0 if r == TWO_PI else r
    r = np.remainder(x, TWO_PI)
    if np.ndim(r) == 0:
        return 0.0 if r == TWO_PI else float(r)
    r[r == TWO_PI] = 0.0
    return r


def circle_dist(a, b):
    """Geodesic distance on the circle between angles a and b."""
    d = np.abs(np.remainder(a - b, TWO_PI))
    return np.minimum(d, TWO_PI - d)


@dataclass(frozen=True)
class ArcSet:
    """A finite union of closed arcs, stored as (start, length) pairs.

    Starts are wrapped to [0, 2*pi); lengths lie in [0, 2*pi]. A zero-length
    arc is a single point, which is how point targets (e.g. a minimum of the
    potential) are represented.
    """

    arcs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        norm = []
        for lo, length in self.arcs:
            if not 0.0 <= length <= TWO_PI:
                raise ValueError(f"arc length {length} outside [0, 2*pi]")
            norm.append((float(wrap(lo)), float(length)))
        object.__setattr__(self, "arcs", tuple(sorted(norm)))

    @classmethod
    def from_endpoints(cls, pairs) -> "ArcSet":
        """Build from (lo, hi) pairs; hi may exceed 2*pi or lo to wrap."""
        arcs = []
        for lo, hi in pairs:
            length = hi - lo
            if length < 0:
                length += TWO_PI
            arcs.append((lo, min(length, TWO_PI)))
        return cls(tuple(arcs))

    @classmethod
    def points(cls, xs) -> "ArcSet":
        return cls(tuple((float(x), 0.0) for x in np.atleast_1d(xs)))

    def contains(self, x) -> bool:
        x = float(wrap(x))
        for lo, length in self.arcs:
            if np.remainder(x - lo, TWO_PI) <= length:
                return True
            # wrap() can leave x == 2*pi - eps while lo == 0.0 exactly
            if length > 0 and np.remainder(x - lo, TWO_PI) >= TWO_PI - 1e-15:
                return True
        return False

    def indicator(self, xs) -> np.ndarray:
        """Vectorized membership test for an array of angles."""
        xs = wrap(np.asarray(xs, dtype=float))
        out = np.zeros(xs.shape, dtype=bool)
        for lo, length in self.arcs:
            rel = np.remainder(xs - lo, TWO_PI)
            out |= rel <= length
            if length > 0:
                out |= rel >= TWO_PI - 1e-15
        return out

    def first_entry(self, x0: float, direction: int, max_travel: float = math.inf):
        """Arc length traveled from x0 at unit speed in the given direction
        (+1 or -1) until first entering the set, or None if beyond
        max_travel. Exact up to floating arithmetic; crossing a point arc
        counts as entering.
        """
        if direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        if self.contains(x0):
            return 0.0
        x0 = float(wrap(x0))
        best = math.inf
        for lo, length in self.arcs:
            entry = lo if direction > 0 else wrap(lo + length)
            s = np.remainder((entry - x0) * direction, TWO_PI)
            best = min(best, float(s))
        if best > max_travel:
            return None
        return best

    def complement(self) -> "ArcSet":
        """Closure of the complement (shared endpoints stay in both sets)."""
        if not self.arcs:
            return ArcSet(((0.0, TWO_PI),))
        arcs = sorted(self.arcs)
        if len(arcs) == 1:
            lo, length = arcs[0]
            if length >= TWO_PI:
                return ArcSet(())
            return ArcSet(((wrap(lo + length), TWO_PI - length),))
        gaps = []
        for (lo, length), (lo_next, _) in zip(arcs, arcs[1:] + arcs[:1]):
            hi = lo + length
            gap = float(np.remainder(lo_next - hi, TWO_PI))
            if gap > 0.0:
                gaps.append((float(wrap(hi)), gap))
        return ArcSet(tuple(gaps))

    def total_length(self) -> float:
        return float(sum(length for _, length in self.arcs))
