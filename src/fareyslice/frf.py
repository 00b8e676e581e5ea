"""General recursive functions on the Farey graph and their closed forms.

A Farey-recursive function F satisfies, on every triangle with parents
(alpha, beta) and difference beta (-) alpha,

    F(beta (+) alpha) = -d1(alpha) F(beta (-) alpha) + d2(alpha) F(beta)
                        + d3(alpha),

where beta is the parent with the larger denominator.  The trace
polynomials are the special case d1 = 1, d2 = -F, d3 = 8; dropping d3
gives the homogeneous family.  Down any fan of repeated mediants the
recursion collapses to the recurrence f(k+1) = x f(k) - f(k-1) (+ c),
run directly by ``left_sequence`` and diagonalised by ``_diagonalised``.
``_chebyshev`` keeps its own recurrence on purpose: it is the
independent side of ``chebyshev_match``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateEigenvalues, SingularParameter
from .recursion import descend, homogeneous_farey_polynomial
from .rings import Poly, _exact_evaluator, exact_div
from .slopes import INFINITY, ONE, ZERO, Slope, boundary_sequence, ominus, parents

__all__ = [
    "FRFSpec",
    "frf_eval",
    "boundary_matrix_power",
    "closed_form_left",
    "closed_form_homog_left",
    "closed_form_triangle",
    "chebyshev_T",
    "chebyshev_match",
    "detect_cycle",
    "left_sequence",
]

_SINGULAR_TOL = 1e-12
_CHEBYSHEV_TOL = 1e-9


@dataclass
class FRFSpec:
    """Coefficient maps and seed values of one recursive function.

    ``d2 = None`` marks the self-multiplying case d2(alpha) = -F(alpha),
    which is how the trace polynomials and their relatives arise.  Seeds
    must cover 0/1, 1/1 and 1/0.
    """

    d1: Callable[[Slope], object]
    d2: Optional[Callable[[Slope], object]]
    d3: Callable[[Slope], object]
    seeds: dict
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        needed = {ZERO, ONE, INFINITY}
        if not needed <= set(self.seeds):
            raise ValueError("seeds must cover 0/1, 1/1 and 1/0")
        self._cache.update({(s.p, s.q): v for s, v in self.seeds.items()})

    @property
    def is_anti_determinant(self) -> bool:
        return self.d2 is None


def frf_eval(spec: FRFSpec, s: Slope):
    """Value of the recursive function at a slope.

    ``recursion.descend`` walks the Stern-Brocot path to ``s`` and fills
    the spec's cache, keyed by (p, q) pairs, at each mediant the cache
    lacks; the d1, d2 and d3 maps see the parent alpha as a ``Slope``.
    """
    cache = spec._cache

    def step(t: tuple, a: tuple, b: tuple, diff: tuple):
        # alpha is the parent with the smaller denominator (0/1 against 1/1).
        alpha, beta = (a, b) if a[1] <= b[1] else (b, a)
        slope = Slope(*alpha)
        d2val = -cache[alpha] if spec.d2 is None else spec.d2(slope)
        return -(spec.d1(slope) * cache[diff]) + d2val * cache[beta] + spec.d3(slope)

    return descend(cache, s, step)


def boundary_matrix_power(spec: FRFSpec, alpha: Slope, n: int):
    """Transition-matrix power applied to the first two fan values.

    For an anti-determinant function (d2 = -F, d = d1 multiplicative with
    no zero divisors in its image) the matrix [[0, 1], [-d(a), -F(a)]]
    advances the fan around ``alpha``.  Each step forward maps the pair
    (v0, v1) to (v1, -d v0 - F v1), so non-negative powers give
    (F(fan_n), F(fan_n+1)) on the nose; each step back maps it to
    ((-F v0 - v1)/d, v0) and needs exact d-inverses.
    """
    if not spec.is_anti_determinant:
        raise ValueError("transition matrices need the self-multiplying form")
    d = spec.d1
    left, right = parents(alpha)
    # Lazy multiplicativity check on the one triangle we rely on.
    if d(alpha) != d(left) * d(right):
        raise ValueError("d is not multiplicative at the visited triangle")
    f_alpha = frf_eval(spec, alpha)
    det = d(alpha)
    v0 = frf_eval(spec, boundary_sequence(alpha, 0))
    v1 = frf_eval(spec, boundary_sequence(alpha, 1))
    for _ in range(n):
        v0, v1 = v1, -det * v0 - f_alpha * v1
    for _ in range(-n):
        v0, v1 = exact_div(-f_alpha * v0 - v1, det), v0
    return v0, v1


def homogeneous_spec() -> FRFSpec:
    """The standard constant-free family as a recursive-function spec."""
    return FRFSpec(
        d1=lambda _: 1,
        d2=None,
        d3=lambda _: Poly(),
        seeds={s: homogeneous_farey_polynomial(s) for s in (ZERO, ONE, INFINITY)},
    )


def _check_not_singular(z: complex) -> None:
    if abs(z) < _SINGULAR_TOL or abs(z - 4) < _SINGULAR_TOL:
        raise SingularParameter(f"z = {z} degenerates the closed form")


def _diagonalised(x, r: complex, n: int, f0, f1) -> complex:
    """f(n) for f(k+1) = x f(k) - f(k-1) with f(0) = f0, f(1) = f1.

    The diagonalisation: with r = sqrt(x^2 - 4), non-zero, the
    eigenvalues are (x +- r)/2.  They multiply to 1, so the radical's
    branch cannot matter: the other branch swaps them and leaves f(n) as
    it is.
    """
    a = (f0 * (x + r) - 2 * f1) * (x - r) ** n
    b = (f0 * (r - x) + 2 * f1) * (x + r) ** n
    return (a + b) / (2.0 ** (1 + n) * r)


def closed_form_left(z: complex, q: int) -> complex:
    """Closed-form value of the parabolic trace polynomial at slope 1/q.

    The constant 8 of the fan recurrence has the fixed point 8/(4 - z);
    the rest is the homogeneous closed form from the shifted seeds
    2 - 8/(4 - z) and 2 + z - 8/(4 - z).  Rejects z in {0, 4}, where the
    radical or the fixed point degenerates.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    _check_not_singular(z)
    lam, mu = 2 * z / (z - 4), (2 * z - z * z) / (4 - z)
    return 8 / (4 - z) + closed_form_homog_left(z, q, lam, mu)


def closed_form_homog_left(z: complex, q: int, a0: complex, a1: complex) -> complex:
    """Closed form for the homogeneous fan sequence with given seeds.

    The sequence satisfies a(q) = (z - 2) a(q-1) - a(q-2); the formula is
    its diagonalisation and fails at z in {0, 4}.
    """
    _check_not_singular(z)
    return _diagonalised(z - 2, cmath.sqrt(z * z - 4 * z), q, a0, a1)


def left_sequence(z, q: int, constant=8):
    """Exact fan values by direct recurrence from the trace seeds 2 and
    2 + z; the fallback path.

    This is the parabolic trace value at 1/q; pass ``constant=0`` for the
    homogeneous family.  Works over any ring z lives in (ints stay exact).
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    if q == 0:
        return 2
    cur, prev = 2 + z, 2
    for _ in range(q - 1):
        cur, prev = constant - (2 - z) * cur - prev, cur
    return cur


def closed_form_triangle(beta0: Slope, beta1: Slope, n: int, z: complex) -> complex:
    """Closed-form homogeneous value at the n-th fan slope from (beta0, beta1).

    The fan direction is alpha = beta1 (-) beta0.  The transition matrix
    of the fan recurrence has corner entry minus the alpha value, so the
    diagonalisation is taken at x = -F(alpha)(z); when F(alpha)(z) is
    +-2 the eigenvalues collide and the caller must fall back to
    ``boundary_matrix_power`` or the plain recurrence.
    """
    alpha = ominus(beta1, beta0)
    x = -homogeneous_farey_polynomial(alpha).evaluate(z)
    # kappa ~ sqrt(eps) once the fan value nears +-2, so detect
    # degeneracy on the value itself rather than on the radical.
    if min(abs(x - 2), abs(x + 2)) < 1e-9:
        raise DegenerateEigenvalues(f"fan value {x} gives equal eigenvalues")
    kappa = cmath.sqrt(complex(x * x - 4))
    f0 = complex(homogeneous_farey_polynomial(beta0).evaluate(z))
    f1 = complex(homogeneous_farey_polynomial(beta1).evaluate(z))
    return _diagonalised(x, kappa, n, f0, f1)


def chebyshev_T(n: int) -> Poly:
    """First-kind Chebyshev polynomial by the three-term recurrence."""
    return _chebyshev(n, Poly([0, 1]))


def _chebyshev(n: int, first: Poly) -> Poly:
    """P_n for P_0 = 1, P_1 = ``first`` and P_(k+1) = 2x P_k - P_(k-1).

    ``first`` = x gives the first kind T_n, 2x the second kind U_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, cur = Poly([1]), first
    if n == 0:
        return prev
    two_x = Poly([0, 2])
    for _ in range(n - 1):
        prev, cur = cur, two_x * cur - prev
    return cur


def chebyshev_match(q: int, z: complex) -> bool:
    """Does the homogeneous 1/q value equal 2 T_q(x) + 4 U_(q-1)(x)?

    Here x = (z - 2)/2, and T and U are the Chebyshev polynomials of the
    first and second kind (U_(-1) = 0), evaluated exactly and rounded
    once: their integer coefficients cancel too much for double Horner
    near x in [-1, 1].  The left side runs the fan recurrence from the
    trace seeds 2 and 2 + z.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    rhs = chebyshev_T(q).scale(2)
    if q:
        rhs = rhs + _chebyshev(q - 1, Poly([0, 2])).scale(4)
    w = _exact_evaluator(rhs.coeffs)(np.array([(complex(z) - 2) / 2]))[0][0] if q else 2
    lhs = complex(left_sequence(z, q, constant=0))
    scale = max(1.0, abs(lhs))
    return abs(lhs - w) <= _CHEBYSHEV_TOL * scale


def detect_cycle(z, max_period: int) -> Optional[int]:
    """Smallest period of the homogeneous fan sequence at z, if any.

    Exact integer arithmetic when z is an integer; complex values compare
    with a relative tolerance.
    """
    seq = [left_sequence(z, k, constant=0) for k in range(3 * max_period + 14)]
    exact = isinstance(z, int)

    def same(u, v):
        if exact:
            return u == v
        return cmath.isclose(u, v, rel_tol=1e-9, abs_tol=1e-9)

    for period in range(1, max_period + 1):
        if all(same(seq[i], seq[i + period]) for i in range(len(seq) - period)):
            return period
    return None
