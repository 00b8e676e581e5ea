"""Experimental scans of the square structure of reduced trace polynomials.

Every reduced parabolic polynomial observed so far factors as
sign * z^k * R(z)^2 with k in {0, 1} the root multiplicity at zero mod 2
and R an integer polynomial.  This module extracts those factors,
reproduces the alternating-coefficient-sum square roots along the
Fibonacci geodesic, and classifies which sign of the triangle relation

    R(mediant) = z^e * R(a) * R(b) +- R(difference),
    e = 1 when both parents have odd multiplicity, else 0

holds at each mediant.  The z^e correction is forced by degree counting;
without it the relation cannot hold at any mediant whose parents both
have odd multiplicity at zero.  Everything here is a reporting tool: a
failed decomposition is surfaced loudly, never hidden.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from .errors import NotASquare
from .recursion import cubic_step, reduced_farey_polynomial
from .rings import Poly, is_perfect_square, poly_sqrt_exact
from .slopes import INFINITY, Slope, enumerate_farey, ominus, parents

__all__ = [
    "SquareDecomposition",
    "decompose_square",
    "table_of_squares",
    "fibonacci_square_root",
    "bad_points",
    "epsilon_k_check",
    "SignParityReport",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SquareDecomposition:
    """sign * z^k * factor(z)^2 equals the reduced polynomial exactly."""

    sign: int
    k: int
    factor: Poly

    def rebuild(self) -> Poly:
        return (self.factor * self.factor).shift(self.k).scale(self.sign)


def decompose_square(s: Slope) -> Optional[SquareDecomposition]:
    """Extract the square structure of the reduced polynomial at a slope.

    k is the zero-multiplicity mod 2 and the factor keeps a positive
    leading coefficient; the remaining half-multiplicity is absorbed into
    the factor.  Returns None (and logs) if the square root fails, which
    would be a genuine counterexample.
    """
    if s == INFINITY:
        return SquareDecomposition(1, 0, Poly())
    reduced = reduced_farey_polynomial(s)
    m = reduced.multiplicity_at_zero()
    k = m % 2
    shifted = Poly(reduced.coeffs[k:])
    sign = 1 if shifted.leading > 0 else -1
    root = poly_sqrt_exact(shifted.scale(sign))
    if root is None:
        log.warning("square decomposition FAILED at %s: %r", s, reduced)
        return None
    return SquareDecomposition(sign, k, root)


def _memo_decomposition(v: Slope, memo: dict) -> SquareDecomposition:
    """decompose_square through ``memo``, raising where it fails."""
    if v not in memo:
        d = decompose_square(v)
        if d is None:
            raise NotASquare(f"decomposition failed at {v}")
        memo[v] = d
    return memo[v]


def _fibonacci_reduced_values(count: int, z: int) -> list[int]:
    # Trace values along the Fibonacci geodesic by the integer cubic
    # recursion; element i is the value at slope fib(i)/fib(i+1).
    x = [2 - z, 2 + z, 2 + z * z]
    while len(x) < count:
        x.append(cubic_step(*x[-3:]))
    return [v - 2 for v in x[:count]]


def fibonacci_square_root(q: int) -> int:
    """Square root of |reduced value at fib(q-1)/fib(q) evaluated at -1|.

    Runs entirely in exact integer arithmetic; raises NotASquare when the
    observed pattern breaks.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    value = abs(_fibonacci_reduced_values(q, -1)[q - 1])
    root = is_perfect_square(value)
    if root is None:
        raise NotASquare(f"|value|={value} at index {q} is not a square")
    return root


def table_of_squares(q_max: int) -> list[int]:
    """fibonacci_square_root for q = 1 .. q_max."""
    return [fibonacci_square_root(q) for q in range(1, q_max + 1)]


def classify_triangle(s: Slope, cache: Optional[dict] = None) -> str:
    """Which sign of the corrected factor relation holds at one mediant.

    Returns "plus", "minus", or "both"; "both" occurs exactly when the
    difference vertex has the zero factor (its reduced polynomial is the
    zero polynomial, i.e. the formal vertex).  A "neither" would mean the
    corrected relation itself fails and is logged as a finding.
    """
    decomps = cache if cache is not None else {}
    a, b = parents(s)
    d = ominus(a, b)
    fa, fb, fd, fs = (_memo_decomposition(v, decomps) for v in (a, b, d, s))
    base = fa.factor * fb.factor
    if fa.k == 1 and fb.k == 1:
        base = base.shift(1)
    plus = base + fd.factor == fs.factor
    minus = base - fd.factor == fs.factor
    if plus and minus:
        return "both"
    if plus:
        return "plus"
    if minus:
        return "minus"
    log.warning("no triangle rule matches at %s", s)
    return "neither"


def bad_points(q_max: int) -> dict[Slope, str]:
    """Classify every mediant with denominator <= q_max by triangle rule."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    cache: dict[Slope, SquareDecomposition] = {}
    return {
        s: classify_triangle(s, cache)
        for s in enumerate_farey(q_max)
        if s.q >= 2
    }


@dataclass
class SignParityReport:
    """Observed sign/multiplicity behaviour across all small triangles.

    The raw sign of a reduced polynomial matches the printed seed values
    but is *not* multiplicative over triangles (a global -1 appears at
    every step); the negated sign is.  The report records both readings
    instead of silently choosing one.  Multiplicity mod 2 is additive.
    Each verdict is read off its list of violating slopes.
    """

    q_max: int
    seed_signs_match: bool = True
    seed_k_match: bool = True
    raw_sign_violations: list[Slope] = field(default_factory=list)
    negated_sign_violations: list[Slope] = field(default_factory=list)
    k_violations: list[Slope] = field(default_factory=list)

    @property
    def raw_sign_multiplicative(self) -> bool:
        return not self.raw_sign_violations

    @property
    def negated_sign_multiplicative(self) -> bool:
        return not self.negated_sign_violations

    @property
    def k_additive(self) -> bool:
        return not self.k_violations

    def summary(self) -> str:
        rows = [
            f"seed signs match printed values: {self.seed_signs_match}",
            f"seed multiplicities match printed values: {self.seed_k_match}",
            f"raw sign multiplicative: {self.raw_sign_multiplicative}"
            + (f" ({len(self.raw_sign_violations)} violations)" if self.raw_sign_violations else ""),
            f"negated sign multiplicative: {self.negated_sign_multiplicative}",
            f"multiplicity mod 2 additive: {self.k_additive}",
        ]
        return "\n".join(rows)


def epsilon_k_check(q_max: int) -> SignParityReport:
    """Test multiplicativity/additivity of observed signs and parities."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    report = SignParityReport(q_max=q_max)
    data: dict[Slope, SquareDecomposition] = {}
    seeds = {Slope(0, 1): (-1, 1), Slope(1, 1): (1, 1), Slope(1, 2): (1, 0)}
    for v, (sign, k) in seeds.items():
        d = _memo_decomposition(v, data)
        if d.sign != sign:
            report.seed_signs_match = False
        if d.k != k:
            report.seed_k_match = False

    for s in enumerate_farey(q_max):
        if s.q < 2:
            continue
        a, b = parents(s)
        ds, da, db = (_memo_decomposition(v, data) for v in (s, a, b))
        if ds.sign != da.sign * db.sign:
            report.raw_sign_violations.append(s)
        if -ds.sign != (-da.sign) * (-db.sign):
            report.negated_sign_violations.append(s)
        if ds.k != (da.k + db.k) % 2:
            report.k_violations.append(s)
    return report
