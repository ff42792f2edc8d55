"""Trigonometric interaction potentials on the circle.

A potential is a finite Fourier sum

    F(x) = a0 + sum_k (a_k cos(k x) + b_k sin(k x)),

which is the class of landscapes every simulator and estimator in this
package runs on. Derivatives of any order and the antiderivative are exact
(coefficient rotations), so downstream geometry never relies on finite
differences.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, wrap
from .errors import ConfigError, DegeneratePotentialError

_GRID = 8192


def _rotate(a: float, b: float, n: int) -> tuple[float, float]:
    """Coefficients of the n-th derivative of a*cos(kx)+b*sin(kx), without
    the k^n factor. One rotation maps (a, b) to (b, -a)."""
    n %= 4
    if n == 0:
        return a, b
    if n == 1:
        return b, -a
    if n == 2:
        return -a, -b
    return -b, a


@dataclass(frozen=True)
class PeriodicPotential:
    """Finite trigonometric polynomial F on [0, 2*pi).

    Parameters
    ----------
    a0 : float
        Constant term.
    harmonics : tuple of (k, a_k, b_k)
        Frequencies must be distinct positive integers; at least one of the
        a_k, b_k must be nonzero (constant potentials are rejected, since
        every consumer of this type assumes a non-constant landscape).
    """

    a0: float
    harmonics: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        terms = []
        seen = set()
        for k, a, b in self.harmonics:
            ki = int(k)
            if ki <= 0 or ki != k:
                raise DegeneratePotentialError(f"harmonic frequency {k!r} is not a positive integer")
            if ki in seen:
                raise DegeneratePotentialError(f"duplicate harmonic frequency {ki}")
            seen.add(ki)
            a, b = float(a), float(b)
            for name, c in ((f"a_{ki}", a), (f"b_{ki}", b)):
                if not math.isfinite(c):
                    raise ConfigError(f"potential coefficient {name!r}: must be finite, got {c!r}")
            terms.append((ki, a, b))
        terms.sort()
        a0 = float(self.a0)
        if not math.isfinite(a0):
            raise ConfigError(f"potential coefficient 'a0': must be finite, got {a0!r}")
        if not any(a != 0.0 or b != 0.0 for _, a, b in terms):
            raise DegeneratePotentialError("potential has no nonzero harmonic coefficient")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "harmonics", tuple(terms))
        object.__setattr__(self, "_deriv_cache", {})
        object.__setattr__(self, "_extremes_cache", None)
        object.__setattr__(self, "_sup_cache", {})
        object.__setattr__(self, "_bound_cache", {})
        object.__setattr__(self, "_value_deriv_terms", tuple(
            (k, a, b, da, db) for (k, a, b), (_, da, db)
            in zip(self.harmonics, self._terms_for_order(1))))

    # ----- evaluation ---------------------------------------------------

    def _terms_for_order(self, order: int) -> tuple[tuple[int, float, float], ...]:
        cache = self._deriv_cache
        if order not in cache:
            rot = []
            for k, a, b in self.harmonics:
                ra, rb = _rotate(a, b, order)
                scale = float(k) ** order
                rot.append((k, ra * scale, rb * scale))
            cache[order] = tuple(rot)
        return cache[order]

    def value(self, x):
        """F(x) for a scalar or array of angles."""
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.a0)
        for k, a, b in self.harmonics:
            kx = k * x
            out += a * np.cos(kx) + b * np.sin(kx)
        return out if out.shape else float(out)

    def derivative(self, x, order: int = 1):
        """Exact derivative F^(order)(x); order >= 1."""
        if order < 1:
            raise ValueError("order must be >= 1")
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for k, a, b in self._terms_for_order(order):
            kx = k * x
            if a != 0.0:
                out += a * np.cos(kx)
            if b != 0.0:
                out += b * np.sin(kx)
        return out if out.shape else float(out)

    def antiderivative(self, x):
        """G(x) with G' = F and G(0) = -sum_k b_k / k (no normalization)."""
        x = np.asarray(x, dtype=float)
        out = self.a0 * x
        for k, a, b in self.harmonics:
            kx = k * x
            out += (a * np.sin(kx) - b * np.cos(kx)) / k
        return out if out.shape else float(out)

    def value_s(self, x: float) -> float:
        """Scalar fast path for event loops."""
        out = self.a0
        for k, a, b in self.harmonics:
            kx = k * x
            out += a * math.cos(kx) + b * math.sin(kx)
        return out

    def derivative_s(self, x: float) -> float:
        out = 0.0
        for k, a, b in self._terms_for_order(1):
            kx = k * x
            out += a * math.cos(kx) + b * math.sin(kx)
        return out

    def value_derivative_s(self, x: float) -> tuple[float, float]:
        """(F(x), F'(x)) from one cos/sin pair per harmonic; each is
        bitwise equal to value_s(x) and derivative_s(x)."""
        f = self.a0
        fp = 0.0
        for k, a, b, da, db in self._value_deriv_terms:
            kx = k * x
            c = math.cos(kx)
            s = math.sin(kx)
            f += a * c + b * s
            fp += da * c + db * s
        return f, fp

    def antiderivative_s(self, x: float) -> float:
        out = self.a0 * x
        for k, a, b in self.harmonics:
            kx = k * x
            out += (a * math.sin(kx) - b * math.cos(kx)) / k
        return out

    # ----- global extremes and norms ------------------------------------

    def _extremes(self):
        cached = self._extremes_cache
        if cached is None:
            xs = np.linspace(0.0, TWO_PI, _GRID, endpoint=False)
            vals = self.value(xs)
            h = TWO_PI / _GRID
            lo = self._polish_extremum(xs[int(np.argmin(vals))], h, sign=1)
            hi = self._polish_extremum(xs[int(np.argmax(vals))], h, sign=-1)
            cached = (float(self.value(lo)), float(lo), float(self.value(hi)), float(hi))
            object.__setattr__(self, "_extremes_cache", cached)
        return cached

    def _polish_extremum(self, x0: float, h: float, sign: int) -> float:
        """Bisect F' on [x0-h, x0+h]; sign=+1 polishes a minimum."""
        lo, hi = x0 - h, x0 + h
        flo = sign * self.derivative(lo)
        fhi = sign * self.derivative(hi)
        if not (flo <= 0.0 <= fhi):
            return x0  # grid node was not bracketing; fall back
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = sign * self.derivative(mid)
            if fm < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @property
    def min_value(self) -> float:
        return self._extremes()[0]

    @property
    def argmin(self) -> float:
        return float(wrap(self._extremes()[1]))

    @property
    def max_value(self) -> float:
        return self._extremes()[2]

    @property
    def argmax(self) -> float:
        return float(wrap(self._extremes()[3]))

    def sup_abs_derivative(self, order: int = 1) -> float:
        """Accurate sup of |F^(order)| (grid scan plus local polish)."""
        cache = self._sup_cache
        if order not in cache:
            xs = np.linspace(0.0, TWO_PI, _GRID, endpoint=False)
            vals = np.abs(self.derivative(xs, order))
            h = TWO_PI / _GRID
            best = float(np.max(vals))
            x0 = xs[int(np.argmax(vals))]
            sign = -1 if self.derivative(x0, order) > 0 else 1
            # polish the peak of |F^(order)| via a root of F^(order+1)
            lo, hi = x0 - h, x0 + h
            dlo = sign * self.derivative(lo, order + 1)
            dhi = sign * self.derivative(hi, order + 1)
            if dlo <= 0.0 <= dhi:
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if sign * self.derivative(mid, order + 1) < 0.0:
                        lo = mid
                    else:
                        hi = mid
                best = max(best, abs(self.derivative(0.5 * (lo + hi), order)))
            cache[order] = best
        return cache[order]

    def coefficient_bound_derivative(self, order: int) -> float:
        """Cheap certified bound sum_k k^order (|a_k| + |b_k|) >= sup|F^(order)|,
        computed once per order."""
        cache = self._bound_cache
        if order not in cache:
            cache[order] = float(sum((float(k) ** order) * (abs(a) + abs(b))
                                     for k, a, b in self.harmonics))
        return cache[order]

    # ----- serialization -------------------------------------------------

    def to_record(self) -> dict:
        return {"a0": self.a0, "harmonics": [[k, a, b] for k, a, b in self.harmonics]}

    @classmethod
    def from_record(cls, record: dict) -> "PeriodicPotential":
        if not isinstance(record, dict) or "harmonics" not in record:
            raise ConfigError("potential record must be a dict with 'a0' and 'harmonics'")
        try:
            harmonics = tuple((int(k), float(a), float(b)) for k, a, b in record["harmonics"])
            return cls(float(record.get("a0", 0.0)), harmonics)
        except (DegeneratePotentialError, ConfigError):
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed potential record: {exc}") from exc

    @property
    def potential_id(self) -> str:
        payload = json.dumps(self.to_record(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def parse_potential_text(text: str) -> PeriodicPotential:
    """Parse the flat text form:

        a0 = -0.2
        harmonic = 1 1.0 0.0
        harmonic = 2 1.0 0.0

    Lines starting with '#' are comments.
    """
    a0 = 0.0
    harmonics = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "a0":
                a0 = float(value)
            elif key == "harmonic":
                k, a, b = value.split()
                harmonics.append((int(k), float(a), float(b)))
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return PeriodicPotential(a0, tuple(harmonics))


def load_potential(path) -> PeriodicPotential:
    """Load a potential from a JSON record or the flat text form."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return PeriodicPotential.from_record(record)
    return parse_potential_text(text)
