"""Farey polynomials by memoized triangle recursion down the Farey graph.

Each new slope costs exactly one polynomial multiplication: with parents
(a, b) and third triangle vertex d = a (-) b,

    value(mediant) = C(parity of target denominator) - value(a)*value(b)
                     - value(d)

where C is the even/odd recursion constant of the ring (both equal 8 in
the parabolic case).  Values are exact in the parabolic and generic
rings and complex doubles in the numeric ring.

One kernel, ``descend``, walks the graph for every recursion in the
package: it fills a slope-keyed cache from its seeds down to the target,
calling a ``step`` once per new slope.  The ring engines, the
homogeneous family (the parabolic recursion with C = 0) and
``frf.frf_eval`` differ only in their seeds and step.

The same triangle step also runs on complex numbers:
``FareyPolynomialEngine.evaluate`` walks the Stern-Brocot path to the
slope on numpy arrays, holding only the current interval and its third
vertex, and gives P and P' at many points at once with no polynomial
product and without the cancellation of Horner's rule on the expanded
coefficients.

Cache discipline: one engine per ring, entries immutable once inserted.
Each engine populates its caches under its own lock and ``get_engine``
creates engines under a module lock, so concurrent callers share one
engine per ring and only ever observe completed entries.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable

import numpy as np

from . import oracle
from .rings import Laurent2, Poly, Ring, RingSpec
from .slopes import (
    INFINITY,
    ONE,
    ZERO,
    CFExpansion,
    Slope,
    ominus,
    parents,
    semiconvergent_path,
)

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

# Values at 0/1, 1/1 and 1/0 with generic coefficients; every ring starts
# from their specialisation.
_GENERIC_SEEDS = {
    ZERO: Poly([Laurent2({(1, -1): 1, (-1, 1): 1}), Laurent2.const(-1)]),
    ONE: Poly([Laurent2({(1, 1): 1, (-1, -1): 1}), Laurent2.const(1)]),
    INFINITY: Poly([Laurent2.const(2)]),
}


def _seeds(ring: Ring) -> dict[Slope, Poly]:
    return {s: Poly([ring.coeff(c) for c in p.coeffs]) for s, p in _GENERIC_SEEDS.items()}


@functools.cache
def farey_triangle(t: Slope) -> tuple[Slope, Slope, Slope]:
    """(a, b, d): the parents of ``t`` and their difference vertex a (-) b.

    Cached: every ``descend`` through ``t`` (each ring's polynomials, the
    homogeneous family, ``frf.frf_eval``) needs the same triangle.
    """
    a, b = parents(t)
    return a, b, ominus(a, b)


def descend(cache: dict, s: Slope, step: Callable) -> object:
    """The value at ``s``, filling ``cache`` down the Farey graph.

    ``step(t, a, b, d)`` returns the value at a new slope t from its
    parents a, b and the difference vertex d = a (-) b, all of them
    already in ``cache``; it runs once per slope added.  Package-internal,
    so not exported.
    """
    if s in cache:
        return cache[s]
    # Iterative worklist: long left fans would overflow Python's
    # recursion limit well below the depths the benchmark uses.
    stack = [s]
    while stack:
        t = stack[-1]
        if t in cache:
            stack.pop()
            continue
        a, b, d = farey_triangle(t)
        missing = [u for u in (a, b, d) if u not in cache]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        cache[t] = step(t, a, b, d)
    return cache[s]


class FareyPolynomialEngine:
    """Memoized recursion for one coefficient ring."""

    def __init__(self, ring: RingSpec = "parabolic"):
        self.ring = ring
        parsed = Ring.parse(ring)
        self._scalar = parsed.name != "generic"
        self._cache: dict[Slope, Poly] = _seeds(parsed)
        self._constants = recursion_constants(ring)
        self._lock = threading.Lock()

    def polynomial(self, s: Slope) -> Poly:
        with self._lock:
            return descend(self._cache, s, self._step)

    def _step(self, t: Slope, a: Slope, b: Slope, d: Slope) -> Poly:
        cache = self._cache
        return self._constants[t.q % 2] - cache[a] * cache[b] - cache[d]

    def evaluate(self, s: Slope, z) -> tuple[np.ndarray, np.ndarray]:
        """(P(z), P'(z)) at every point of the complex array ``z``.

        Walks the Stern-Brocot path to ``s`` on arrays, from the interval
        (L, R) = (0/1, 1/1) with third vertex D = 1/0.  Each step computes
        the mediant M, whose parents are (L, R) in that order,
        v_M = C - v_L v_R - v_D and v'_M = -(v'_L v_R + v_L v'_R) - v'_D,
        and keeps the half that holds ``s``: (L, M) with D = R, or (M, R)
        with D = L.  It multiplies no polynomials and keeps no state
        between calls.  The generic ring has no scalar values and raises
        ValueError.
        """
        if not self._scalar:
            raise ValueError("the generic ring has no scalar values to evaluate at")
        z = np.asarray(z, dtype=complex)
        seeds = {}
        for u in _GENERIC_SEEDS:
            c = self._cache[u].coeffs + [0, 0]
            seeds[u] = (c[0] + c[1] * z, np.full_like(z, c[1]))
        if s in seeds:
            return seeds[s]
        consts = [c.constant() for c in self._constants]
        (vl, dl), (vr, dr), (vd, dd) = seeds[ZERO], seeds[ONE], seeds[INFINITY]
        lp, lq, rp, rq = 0, 1, 1, 1
        while True:
            mp, mq = lp + rp, lq + rq
            vm = consts[mq % 2] - vl * vr - vd
            dm = -(dl * vr + vl * dr) - dd
            if (mp, mq) == (s.p, s.q):
                return vm, dm
            if s.p * mq < mp * s.q:
                rp, rq, vr, dr, vd, dd = mp, mq, vm, dm, vr, dr
            else:
                lp, lq, vl, dl, vd, dd = mp, mq, vm, dm, vl, dl

    def cached_slopes(self) -> list[Slope]:
        return list(self._cache)


_ENGINES: dict = {}
_ENGINES_LOCK = threading.Lock()
_HOMOGENEOUS: dict[Slope, Poly] = _seeds(Ring.parse("parabolic"))
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
