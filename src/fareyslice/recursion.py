"""Farey polynomials by memoized triangle recursion down the Farey graph.

With parents (a, b) and third triangle vertex d = a (-) b,

    value(mediant) = C(parity of target denominator) - value(a)*value(b)
                     - value(d)

where C is the even/odd recursion constant of the ring (both equal 8 in
the parabolic case).  Values are exact in the parabolic and generic
rings and complex doubles in the numeric ring.

A new slope costs at most one polynomial multiplication, and in the
exact rings none when its mirror is cached (the mirror rule):

    P_{(q-p)/q}(z, u, v) = P_{p/q}(-z, u, 1/v).

The reflection p/q -> (q - p)/q of the Farey graph keeps denominators,
fixes 1/0 and maps each triangle to a triangle, its mediant to the
mediant.  Under (z, v) -> (-z, 1/v) the seeds at 0/1 and 1/1 swap, the
seed 2 at 1/0 and both triangle sums are fixed, so by induction down the
Stern-Brocot tree the map carries each slope's value to its mirror's.
Parabolically it reads P_{(q-p)/q}(z) = P_{p/q}(-z).  The induction
needs only these seeds and triangle sums that the reflection fixes, so
the rule holds in any exact engine whose sums it fixes, zero included:
the homogeneous family obeys H_{(q-p)/q}(z) = H_{p/q}(-z).  A numeric
ring keeps one product per slope: there v = exp(i pi / b), and the rule
would read its mirror's value at 1/v, the conjugate parameter, which is
another ring; so its doubles stay as the product gives them.

One kernel, ``descend``, walks the Stern-Brocot path to a slope from the
interval (0/1, 1/1) with third vertex 1/0 and calls a ``step`` once per
mediant of the path that its cache lacks.  Every recursion of the
package runs on this one walk and differs only in its cache, seeds and
step: the ring engines, the homogeneous family's engine (the parabolic
seeds with C = 0), ``frf.frf_eval``, and
``FareyPolynomialEngine.evaluate``, which runs the same triangle step on
numpy arrays and so gives P and P' at many complex points at once, with
no polynomial product and without the cancellation of Horner's rule on
the expanded coefficients.  Caches are keyed by (p, q) int pairs, which
hash faster than the frozen ``Slope`` dataclass.

Cache discipline: one engine per ring and one for the homogeneous
family, entries immutable once inserted.  Each engine populates its
caches under its own lock, ``get_engine`` creates the ring engines under
a module lock and the family's engine is built at import, so concurrent
callers share one engine per ring or family and only ever observe
completed entries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ZeroDivisor
from .rings import Laurent2, Poly, Ring, RingSpec, _from_terms
from .slopes import CFExpansion, Slope, semiconvergent_path

__all__ = [
    "FareyPolynomialEngine",
    "farey_polynomial",
    "reduced_farey_polynomial",
    "homogeneous_farey_polynomial",
    "fan_walk",
    "cubic_step",
    "cubic_step_homogeneous",
    "dynsys_check",
    "DynSysReport",
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

# The even and odd triangle sums C with generic coefficients; every ring
# specialises them (``recursion_constants``).
_EVEN_SUM = Laurent2({(0, 0): 4, (2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1})
_ODD_SUM = Laurent2({(1, 1): 2, (1, -1): 2, (-1, 1): 2, (-1, -1): 2})


def recursion_constants(ring: RingSpec = "parabolic") -> tuple[Poly, Poly]:
    """(even, odd) triangle-sum constants C of the ring, as polynomials:
    the generic sums ``_EVEN_SUM`` and ``_ODD_SUM`` specialised.  The even
    one takes the squared single-parameter terms, the odd one twice the
    mixed terms, and both collapse to 8 parabolically."""
    ring = Ring.parse(ring)
    return ring.specialize(Poly([_EVEN_SUM])), ring.specialize(Poly([_ODD_SUM]))


def _seeds(ring: Ring) -> dict[tuple[int, int], Poly]:
    return {k: ring.specialize(p) for k, p in _GENERIC_SEEDS.items()}


def _mirrored(poly: Poly) -> Poly:
    """P(-z, u, 1/v) of an exact P(z, u, v): the polynomial of the mirror
    slope (see the module docstring).  Odd powers of z change sign, and a
    generic term (i, j) moves to (i, -j), in new term dicts."""
    out = []
    for k, c in enumerate(poly.coeffs):
        odd = k & 1
        if type(c) is Laurent2:
            out.append(_from_terms({(i, -j): -n if odd else n for (i, j), n in c.terms.items()}))
        else:
            out.append(-c if odd else c)
    return Poly(out)


def descend(cache: dict, s: Slope, step: Callable) -> object:
    """The value at ``s``, filling ``cache`` along its Stern-Brocot path.

    ``cache`` is keyed by (p, q) pairs and holds at least 0/1, 1/1 and
    1/0.  The walk starts at the interval (a, b) = (0/1, 1/1) with third
    vertex d = 1/0.  At each mediant t of a and b, if ``cache`` lacks t,
    it stores ``step(t, a, b, d)``: all four are (p, q) pairs, a < b are
    the parents of t, d = a (-) b is the third vertex of their triangle,
    and all three are already in ``cache``.  Then it keeps the half that
    holds ``s``: (a, t) with d = b, or (t, b) with d = a.  So ``step``
    runs once per slope added, and never meets its d again: it may pop d
    from ``cache``.  Package-internal, so not exported.
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
        self.ring = Ring.parse(ring)
        self._cache: dict[tuple[int, int], Poly] = _seeds(self.ring)
        self._constants = recursion_constants(self.ring)
        self._lock = threading.Lock()

    def polynomial(self, s: Slope) -> Poly:
        with self._lock:
            return descend(self._cache, s, self._step)

    def _step(self, t: tuple, a: tuple, b: tuple, d: tuple) -> Poly:
        cache = self._cache
        if self.ring.params is None:  # exact: the mirror rule holds
            mirror = cache.get((t[1] - t[0], t[1]))
            if mirror is not None:
                return _mirrored(mirror)
        return self._constants[t[1] % 2] - cache[a] * cache[b] - cache[d]

    def evaluate(self, s: Slope, z) -> tuple[np.ndarray, np.ndarray]:
        """(P(z), P'(z)) at every point of the complex array ``z``.

        ``descend`` over a per-call cache of (value, derivative) arrays:
        the step at a mediant t with parents a, b and third vertex d is
        v_t = C - v_a v_b - v_d and v'_t = -(v'_a v_b + v_a v'_b) - v'_d.
        It multiplies no polynomials and keeps no state between calls, and
        the step pops v_d, so the cache never holds more than four entries:
        the peak traced memory at 1/1000 for 500 points is 0.08 MB, where
        keeping every value of the path would take 16.4 MB.  The generic
        ring has no scalar values and raises ValueError.
        """
        if self.ring.name == "generic":
            raise ValueError("the generic ring has no scalar values to evaluate at")
        z = np.asarray(z, dtype=complex)
        values = {}
        for k in _GENERIC_SEEDS:
            c = self._cache[k].coeffs + [0, 0]
            values[k] = (c[0] + c[1] * z, np.full_like(z, c[1]))
        consts = [c.constant() for c in self._constants]

        def step(t, a, b, d):
            (va, da), (vb, db), (vd, dd) = values[a], values[b], values.pop(d)
            return consts[t[1] % 2] - va * vb - vd, -(da * vb + va * db) - dd

        return descend(values, s, step)

    def cached_slopes(self) -> list[Slope]:
        with self._lock:  # ``polynomial`` inserts under it
            return [Slope(p, q) for p, q in self._cache]


def _homogeneous_engine() -> FareyPolynomialEngine:
    """A new engine for the homogeneous family: the parabolic seeds with
    both triangle sums zero."""
    engine = FareyPolynomialEngine("parabolic")
    engine._constants = (Poly(), Poly())
    return engine


_ENGINES: dict = {}
_ENGINES_LOCK = threading.Lock()
_HOMOGENEOUS_ENGINE = _homogeneous_engine()


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
    value(mediant) = -value(a)*value(b) - value(d).  One parabolic engine
    with both triangle sums zero computes the family under its own lock,
    and a slope whose mirror is cached costs no product, by the mirror
    rule H_{(q-p)/q}(z) = H_{p/q}(-z).
    """
    return _HOMOGENEOUS_ENGINE.polynomial(s)


def fan_walk(cf: CFExpansion, n: int, ring: RingSpec = "parabolic") -> list[tuple[Slope, Poly]]:
    """Polynomials along the unit-mediant walk of a continued fraction.

    The walk advances one Farey triangle at a time, so the engine performs
    at most one polynomial multiplication per new slope and no matrix
    products.
    """
    engine = get_engine(ring)
    return [(s, engine.polynomial(s)) for s in semiconvergent_path(cf, n)]


def cubic_step(x1, x2, x3):
    """One step of the parabolic triangle recursion on ring elements."""
    eight = _like_const(8, x1, x2, x3)
    return eight - x1 - x2 * x3


def cubic_step_homogeneous(y1, y2, y3):
    """The same step on the reduced values y = P - 2, which moves the
    fixed point (2, 2, 2) to zero.  This is not the step of the family of
    ``homogeneous_farey_polynomial``, which drops the triangle sum instead."""
    return -y1 - y2 * y3 - 2 * (y2 + y3)


def _like_const(n, *xs):
    for x in xs:
        if isinstance(x, Poly):
            return Poly([n])
    return n


@dataclass
class DynSysReport:
    """Pass/fail record for the cubic step map's fixed-point data."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def __str__(self) -> str:
        return "\n".join(
            f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
            for name, ok, detail in self.checks
        )


_EIGENPAIR_TOL = 1e-12


def _jacobian(c: float) -> np.ndarray:
    # Differential of (x1, x2, x3) -> (x2, x3, cubic_step(x1, x2, x3)) at
    # the diagonal point (c, c, c).
    return np.array([[0, 1, 0], [0, 0, 1], [-1, -c, -c]], dtype=float)


def dynsys_check() -> DynSysReport:
    """Verify the two fixed points of the cubic step map and their eigen data.

    The map is (x1, x2, x3) -> (x2, x3, cubic_step(x1, x2, x3)).  Checks:
    it fixes (2,2,2) and (-4,-4,-4); each known eigenpair of the Jacobian
    has residual below 1e-12; the characteristic polynomials factor
    exactly over the integers; both determinants are -1.
    """
    report = DynSysReport()
    s21 = np.sqrt(21.0)
    omega = complex(-1, np.sqrt(3.0)) / 2

    for c in (2, -4):
        image = (c, c, cubic_step(c, c, c))
        report.add(f"fixed point ({c},{c},{c})", image == (c, c, c))

    eigen_data = {
        -4: [
            ((5 + s21) / 2, (-(-5 + s21) / (5 + s21), 2 / (5 + s21), 1)),
            (-1.0, (1, -1, 1)),
            ((5 - s21) / 2, (-(5 + s21) / (-5 + s21), -2 / (-5 + s21), 1)),
        ],
        2: [
            (omega, (omega, omega.conjugate(), 1)),
            (complex(-1), (1, -1, 1)),
            (omega.conjugate(), (omega.conjugate(), omega, 1)),
        ],
    }
    for c, pairs in eigen_data.items():
        jac = _jacobian(c)
        for lam, vec in pairs:
            v = np.array(vec, dtype=complex)
            resid = float(np.max(np.abs(jac @ v - lam * v)))
            report.add(
                f"eigenpair lambda={lam:.6g} at ({c},{c},{c})",
                resid < _EIGENPAIR_TOL,
                f"residual {resid:.2e}",
            )
        det = int(round(float(np.linalg.det(jac))))
        report.add(f"determinant at ({c},{c},{c}) == -1", det == -1)

    # Characteristic polynomials, exactly over the integers: the Jacobian
    # is a companion matrix, so char(t) = t^3 + c t^2 + c t + 1.
    for c, quad in ((2, Poly([1, 1, 1])), (-4, Poly([1, -5, 1]))):
        char = Poly([1, c, c, 1])
        try:
            ok = char.divmod_exact(Poly([1, 1])) == quad
        except ZeroDivisor:
            ok = False
        report.add(
            f"char poly at ({c},{c},{c}) factors as (t+1)*({quad.coeffs})", ok
        )
    return report
