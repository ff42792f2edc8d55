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
from math import cos, sin

import numpy as np

from .angles import TWO_PI, wrap
from .errors import CirclelabError, ConfigError, DegeneratePotentialError

_GRID = 8192
_SCAN = np.linspace(0.0, TWO_PI, _GRID, endpoint=False)
_RTOL = 4.0 * math.ulp(1.0)
_XTOL = 1e-14  # bracket width for the roots of F, F - level and F^(n)


def _root(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f in a sign-change bracket by Brent's (1973) method.

    A line-for-line port of the reference C `brentq` (rtol = 4 eps, at
    most 100 iterations); every result is bitwise equal to its result.
    """
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise CirclelabError(f"no sign change on [{lo}, {hi}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise CirclelabError(f"no convergence in 100 iterations on [{lo}, {hi}]")


def _circle_roots(f, grid: int, merge: float) -> list[float]:
    """Zeros of f on the circle, sorted in [0, 2*pi).

    f is scanned on `grid` equal cells: a node where f is 0 is a zero, and
    a cell whose ends differ in sign gives one `_root`.  Zeros closer than
    `merge`, also across the wrap, count once.
    """
    xs = np.linspace(0.0, TWO_PI, grid + 1)
    v = f(xs)
    a, b = v[:-1], v[1:]
    cells = np.flatnonzero((a == 0.0) | ((b != 0.0) & ((a > 0.0) != (b > 0.0))))
    roots = sorted(wrap(xs[i] if a[i] == 0.0 else _root(f, xs[i], xs[i + 1], _XTOL))
                   for i in cells)
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] >= merge:
            out.append(r)
    if len(out) > 1 and TWO_PI - out[-1] + out[0] < merge:
        out.pop()
    return out


def _sum_source(potential, name: str, order: int, array: bool) -> str:
    """Python text of `name`(x), the table sum of `order` at x by the
    statements of `_sums_block`: at a float with math's cos and sin, or,
    if array, at np.asarray(x) with numpy's bound as locals, and then a
    float for a 0-d x."""
    head = ("\n    cos = np.cos\n    sin = np.sin\n    x = np.asarray(x, dtype=float)"
            if array else "")
    body = potential._sums_block("x", {order: "out"}, 4)
    tail = " if out.shape else float(out)" if array else ""
    return f"def {name}(x):{head}{body}\n    return out{tail}\n"


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
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_extremes_cache", None)
        object.__setattr__(self, "_sup_cache", {})
        object.__setattr__(self, "_bound_cache", {})
        object.__setattr__(self, "_functions", {})
        self.coefficients(-1)

    # ----- evaluation ---------------------------------------------------

    def coefficients(self, order: int) -> tuple[tuple[float, float, float], ...]:
        """The table of F^(order), or of G without its a0*x for order -1:
        one row (k, p, q) per harmonic with a nonzero coefficient, by k,
        p from a_k and q from b_k.  Every evaluator adds its terms in the
        order of `_terms`."""
        table = self._tables.get(order)
        if table is None:
            if order < -1:
                raise ValueError("order must be >= -1")
            sign_p, sign_q = ((1, 1), (-1, 1), (-1, -1), (1, -1))[order % 4]
            rows = []
            for k, a, b in self.harmonics:
                # G divides by k: a_k / k rounds once, a_k * k**-1 twice.
                scale = float(k) ** order
                p, q = (a / k, b / k) if order < 0 else (a * scale, b * scale)
                if p or q:
                    rows.append((float(k), sign_p * p, sign_q * q))
            table = self._tables[order] = tuple(rows)
        return table

    def _sum(self, order: int, array: bool = False):
        """The table sum of `order` compiled from `_sums_block`: a function
        of a float x, or of a numpy array x if array.  Cached under (order,
        array) as well as its name, which costs more to build than a sum."""
        fn = self._functions.get((order, array))
        if fn is None:
            name = ("G" if order < 0 else f"F{order}") + ("_array" if array else "")
            fn = self._functions[order, array] = self._generated(
                name, _sum_source, order, array)
        return fn

    def value(self, x):
        """F(x) for a scalar or array of angles."""
        return self._sum(0, True)(x)

    def derivative(self, x, order: int = 1):
        """Exact derivative F^(order)(x); order >= 1."""
        if order < 1:
            raise ValueError("order must be >= 1")
        return self._sum(order, True)(x)

    def antiderivative(self, x):
        """G(x) with G' = F and G(0) = -sum_k b_k / k (no normalization)."""
        return self._sum(-1, True)(x)

    def value_s(self, x: float) -> float:
        """F(x) at a float x, for event loops."""
        return self._sum(0)(x)

    def derivative_s(self, x: float) -> float:
        """F'(x) at a float x."""
        return self._sum(1)(x)

    def antiderivative_s(self, x: float) -> float:
        """G(x) at a float x."""
        return self._sum(-1)(x)

    def _terms(self, order: int) -> list[tuple[float, str, int]]:
        """(coefficient, "c" or "s", k) for each nonzero term of the table
        of `order`, the term coefficient * cos(k x) or * sin(k x), in the
        order every evaluator adds them: by k, p * T(kx) and then q *
        T'(kx), where (T, T') is (cos, sin) for even orders and (sin, cos)
        for odd ones.  The sum starts from a0 (F), a0*x (G) or -0.0, the
        additive identity (F^(n), n >= 1)."""
        first, second = ("c", "s") if order % 2 == 0 else ("s", "c")
        return [(coef, fn, int(k)) for k, p, q in self.coefficients(order)
                for coef, fn in ((p, first), (q, second)) if coef]

    def _sums_block(self, x: str, sums: dict, indent: int) -> str:
        """Straight-line Python statements, each on a new line indented by
        `indent` spaces, that set, for each order: name of `sums`, the
        name to the table sum of that order (see `_terms`) at the
        value named x, with no call, loop or zero test of their own: the
        text of `_sum`'s evaluators, diffusion's scalar EM block,
        control's RK4 loop and pdmp's samplers.

        The zero terms are left out, and -0.0 + y is y bitwise, so F^(n)
        for n >= 1 starts at its first term.  Each harmonic k takes cos
        and sin of k x once, for all the sums that read them.
        Coefficients are written as repr() of the table's floats, which
        reads back exactly; a finite a_k times k can overflow to inf, so
        the statements read the names cos, sin and inf, and assign
        kx<k>, c<k> and s<k> for the harmonics they read.
        """
        trig, lines = {}, []
        for order, name in sums.items():
            terms = ([repr(self.a0)] if order == 0
                     else [f"{self.a0!r} * {x}"] if order == -1 else [])
            for coef, fn, k in self._terms(order):
                trig.setdefault(k, set()).add(fn)
                terms.append(f"{coef!r} * {fn}{k}")
            lines.append(f"{name} = {' + '.join(terms) or '-0.0'}")
        head = []
        for k in sorted(trig):
            kx = x if k == 1 else f"kx{k}"  # 1.0 * x is x bitwise
            if k != 1:
                head.append(f"{kx} = {float(k)!r} * {x}")
            head += [f"{fn}{k} = {'cos' if fn == 'c' else 'sin'}({kx})"
                     for fn in sorted(trig[k])]
        return "".join(f"\n{' ' * indent}{line}" for line in head + lines)

    def _generated(self, name: str, source, *args):
        """The function `name` that the Python text source(self, name,
        *args) defines, compiled on first use and cached on the instance.

        The text reads cos, sin and inf (math's; see `_sums_block`), and
        np for array functions.  A pickled potential leaves the cache
        out, and a copy compiles its own.
        """
        fn = self._functions.get(name)
        if fn is None:
            namespace = {"cos": cos, "sin": sin, "inf": math.inf, "np": np}
            exec(compile(source(self, name, *args), f"<generated {name}>",
                         "exec"), namespace)
            fn = self._functions[name] = namespace[name]
        return fn

    def __getstate__(self):
        return {**self.__dict__, "_functions": {}}

    # ----- global extremes and norms ------------------------------------

    def _extremes(self):
        cached = self._extremes_cache
        if cached is None:
            vals = self.value(_SCAN)
            lo = self._peak(0, -vals)
            hi = self._peak(0, vals)
            cached = (self.value(lo), lo, self.value(hi), hi)
            object.__setattr__(self, "_extremes_cache", cached)
        return cached

    def _peak(self, order: int, vals) -> float:
        """Where the grid scan vals (a function of F^(order) on _SCAN) peaks,
        polished to the root of F^(order+1) in the cells either side; the
        grid node itself when they hold no sign change."""
        x0 = float(_SCAN[int(np.argmax(vals))])
        h = TWO_PI / _GRID
        try:
            return _root(lambda z: self.derivative(z, order + 1), x0 - h, x0 + h, _XTOL)
        except CirclelabError:
            return x0

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
            vals = np.abs(self.derivative(_SCAN, order))
            x = self._peak(order, vals)
            cache[order] = max(float(np.max(vals)), abs(self.derivative(x, order)))
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
