"""Farey polynomials by memoized triangle recursion down the Farey graph.

Each new slope costs exactly one polynomial multiplication: with parents
(a, b) and third triangle vertex d = a (-) b,

    value(mediant) = C(parity of target denominator) - value(a)*value(b)
                     - value(d)

where C is the even/odd recursion constant of the ring (both equal 8 in
the parabolic case).  Values are exact in the parabolic and generic
rings and complex doubles in the numeric ring.

One kernel, ``descend``, walks the Stern-Brocot path to a slope from the
interval (0/1, 1/1) with third vertex 1/0 and calls a ``step`` once per
mediant of the path that its cache lacks.  Every recursion of the
package runs on this one walk and differs only in its cache, seeds and
step: the ring engines, the homogeneous family (the parabolic recursion
with C = 0), ``frf.frf_eval``, and ``FareyPolynomialEngine.evaluate``,
which runs the same triangle step on numpy arrays and so gives P and P'
at many complex points at once, with no polynomial product and without
the cancellation of Horner's rule on the expanded coefficients.  Caches
are keyed by (p, q) int pairs, which hash faster than the frozen
``Slope`` dataclass.

Cache discipline: one engine per ring, entries immutable once inserted.
Each engine populates its caches under its own lock and ``get_engine``
creates engines under a module lock, so concurrent callers share one
engine per ring and only ever observe completed entries.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from . import oracle
from .rings import Laurent2, Poly, Ring, RingSpec
from .slopes import CFExpansion, Slope, semiconvergent_path

__all__ = [
    "FareyPolynomialEngine",
    "farey_polynomial",
    "reduced_farey_polynomial",
    "homogeneous_farey_polynomial",
    "fan_walk",
    "cubic_step",
    "cubic_step_homogeneous",
    "recursion_constants",
    "get_engine",
]

# Values at 0/1, 1/1 and 1/0 with generic coefficients, keyed by (p, q);
# every ring starts from their specialisation.
_GENERIC_SEEDS = {
    (0, 1): Poly([Laurent2({(1, -1): 1, (-1, 1): 1}), Laurent2.const(-1)]),
    (1, 1): Poly([Laurent2({(1, 1): 1, (-1, -1): 1}), Laurent2.const(1)]),
    (1, 0): Poly([Laurent2.const(2)]),
}


def _seeds(ring: Ring) -> dict[tuple[int, int], Poly]:
    return {k: Poly([ring.coeff(c) for c in p.coeffs]) for k, p in _GENERIC_SEEDS.items()}


def descend(cache: dict, s: Slope, step: Callable) -> object:
    """The value at ``s``, filling ``cache`` along its Stern-Brocot path.

    ``cache`` is keyed by (p, q) pairs and holds at least 0/1, 1/1 and
    1/0.  The walk starts at the interval (a, b) = (0/1, 1/1) with third
    vertex d = 1/0.  At each mediant t of a and b, if ``cache`` lacks t,
    it stores ``step(t, a, b, d)``: all four are (p, q) pairs, a < b are
    the parents of t, d = a (-) b is the third vertex of their triangle,
    and all three are already in ``cache``.  Then it keeps the half that
    holds ``s``: (a, t) with d = b, or (t, b) with d = a.  So ``step``
    runs once per slope added, and the cache ends up holding every slope
    of the path.  Package-internal, so not exported.
    """
    p, q = s.p, s.q
    if (p, q) in cache:
        return cache[p, q]
    a, b, d = (0, 1), (1, 1), (1, 0)
    while True:
        t = (a[0] + b[0], a[1] + b[1])
        if t not in cache:
            cache[t] = step(t, a, b, d)
        if t == (p, q):
            return cache[t]
        if p * t[1] < t[0] * q:
            b, d = t, b
        else:
            a, d = t, a


class FareyPolynomialEngine:
    """Memoized recursion for one coefficient ring."""

    def __init__(self, ring: RingSpec = "parabolic"):
        self.ring = ring
        parsed = Ring.parse(ring)
        self._scalar = parsed.name != "generic"
        self._cache: dict[tuple[int, int], Poly] = _seeds(parsed)
        self._constants = recursion_constants(ring)
        self._lock = threading.Lock()

    def polynomial(self, s: Slope) -> Poly:
        with self._lock:
            return descend(self._cache, s, self._step)

    def _step(self, t: tuple, a: tuple, b: tuple, d: tuple) -> Poly:
        cache = self._cache
        return self._constants[t[1] % 2] - cache[a] * cache[b] - cache[d]

    def evaluate(self, s: Slope, z) -> tuple[np.ndarray, np.ndarray]:
        """(P(z), P'(z)) at every point of the complex array ``z``.

        ``descend`` over a per-call cache of (value, derivative) arrays:
        the step at a mediant t with parents a, b and third vertex d is
        v_t = C - v_a v_b - v_d and v'_t = -(v'_a v_b + v_a v'_b) - v'_d.
        It multiplies no polynomials, keeps no state between calls, and
        holds every value of the path until it returns: 5.3 MB at 1/400
        for 400 points, against 0.09 MB for a walk that held only the
        interval and its third vertex.  The generic ring has no scalar
        values and raises ValueError.
        """
        if not self._scalar:
            raise ValueError("the generic ring has no scalar values to evaluate at")
        z = np.asarray(z, dtype=complex)
        values = {}
        for k in _GENERIC_SEEDS:
            c = self._cache[k].coeffs + [0, 0]
            values[k] = (c[0] + c[1] * z, np.full_like(z, c[1]))
        consts = [c.constant() for c in self._constants]

        def step(t, a, b, d):
            (va, da), (vb, db), (vd, dd) = values[a], values[b], values[d]
            return consts[t[1] % 2] - va * vb - vd, -(da * vb + va * db) - dd

        return descend(values, s, step)

    def cached_slopes(self) -> list[Slope]:
        return [Slope(p, q) for p, q in self._cache]


_ENGINES: dict = {}
_ENGINES_LOCK = threading.Lock()
_HOMOGENEOUS: dict[tuple[int, int], Poly] = _seeds(Ring.parse("parabolic"))
_HOMOGENEOUS_LOCK = threading.Lock()


def get_engine(ring: RingSpec = "parabolic") -> FareyPolynomialEngine:
    key = Ring.parse(ring)
    with _ENGINES_LOCK:
        if key not in _ENGINES:
            _ENGINES[key] = FareyPolynomialEngine(ring)
        return _ENGINES[key]


def farey_polynomial(s: Slope, ring: RingSpec = "parabolic") -> Poly:
    """The trace polynomial of the slope, via the triangle recursion."""
    return get_engine(ring).polynomial(s)


def reduced_farey_polynomial(s: Slope) -> Poly:
    """Parabolic polynomial minus its constant 2."""
    return farey_polynomial(s, "parabolic") - Poly([2])


def homogeneous_farey_polynomial(s: Slope) -> Poly:
    """Solution of the constant-free triangle recursion at the slope.

    Seeds are 2 - z, 2, 2 + z at 0/1, 1/0, 1/1; each triangle step is
    value(mediant) = -value(a)*value(b) - value(d).
    """
    cache = _HOMOGENEOUS
    with _HOMOGENEOUS_LOCK:
        return descend(cache, s, lambda t, a, b, d: -(cache[a] * cache[b]) - cache[d])


def fan_walk(cf: CFExpansion, n: int, ring: RingSpec = "parabolic") -> list[tuple[Slope, Poly]]:
    """Polynomials along the unit-mediant walk of a continued fraction.

    The walk advances one Farey triangle at a time, so the engine performs
    one polynomial multiplication per new slope and no matrix products.
    """
    engine = get_engine(ring)
    return [(s, engine.polynomial(s)) for s in semiconvergent_path(cf, n)]


def cubic_step(x1, x2, x3):
    """One step of the parabolic triangle recursion on ring elements."""
    eight = _like_const(8, x1, x2, x3)
    return eight - x1 - x2 * x3


def cubic_step_homogeneous(y1, y2, y3):
    """The same step after shifting the constant fixed point to zero."""
    return -y1 - y2 * y3 - 2 * (y2 + y3)


def _like_const(n, *xs):
    for x in xs:
        if isinstance(x, Poly):
            return Poly([n])
    return n


def recursion_constants(ring: RingSpec = "parabolic") -> tuple[Poly, Poly]:
    """(even, odd) triangle-sum constants of the ring, as polynomials."""
    return (
        oracle.recursion_constant(True, ring),
        oracle.recursion_constant(False, ring),
    )
