"""Root loci of trace polynomials: slice clouds and cusp approximations.

All roots of P + 2 are extracted with an Aberth-Ehrlich simultaneous
iteration over complex doubles (Aberth 1973, Ehrlich 1967).  For trace
polynomials the iteration evaluates P + 2 and P' by the triangle
recursion on arrays of points, which keeps roots accurate to double
resolution where Horner's rule on the expanded coefficients is
noise-bound; the coefficients only place the initial guesses, bound the
iteration and score it.  Reported residuals are backward-error scaled,
|P(z)| / sum_k |c_k| |z|^k: an absolute residual is meaningless for these
polynomials, whose terms reach 1e20+ at the outermost roots while
cancelling to machine precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .errors import DegreeOverflow, FormalVertex
from .recursion import get_engine
from .rings import GeneratorParams, Laurent2, Poly, Ring, to_complex_coeffs
from .slopes import CFExpansion, Slope, _mediant_walk, enumerate_farey

__all__ = [
    "RootSet",
    "all_roots",
    "roots",
    "cusp_candidates",
    "slice_cloud",
    "irrational_cusp_path",
    "extremal_root_heuristic",
    "dynsys_check",
    "DynSysReport",
]

DEGREE_GUARD = 60


@dataclass
class RootSet:
    """All complex roots of one shifted trace polynomial.

    ``residuals`` are backward-error scaled; ``converged`` is False when
    the iteration hit its budget, in which case the roots are reported
    anyway and flagged.
    """

    slope: Optional[Slope]
    ring: str
    roots: list[complex]
    residuals: list[float]
    converged: bool = True

    def __len__(self) -> int:
        return len(self.roots)


def _symmetrize_conjugates(z: np.ndarray, tol: float) -> np.ndarray:
    """Pair roots of a real polynomial into exact conjugate pairs.

    Near-real roots are snapped onto the axis; the rest are greedily
    matched with their closest conjugate partner and averaged, which only
    moves each root by about its own error.  ``tol`` must stay below the
    closest genuine root separation or distinct roots would be merged, so
    accurately evaluated inputs use a much tighter value than noisy ones.
    """
    out = list(z)
    used = [False] * len(out)
    for i, zi in enumerate(out):
        if used[i]:
            continue
        if abs(zi.imag) <= tol * (1.0 + abs(zi)):
            out[i] = complex(zi.real, 0.0)
            used[i] = True
            continue
        best, best_dist = -1, float("inf")
        for j in range(i + 1, len(out)):
            if used[j]:
                continue
            dist = abs(out[j] - zi.conjugate())
            if dist < best_dist:
                best, best_dist = j, dist
        if best >= 0 and best_dist <= tol * (1.0 + abs(zi)):
            avg = (zi + out[best].conjugate()) / 2
            out[i] = avg
            out[best] = avg.conjugate()
            used[i] = used[best] = True
        else:
            used[i] = True
    return np.array(out, dtype=complex)


def _scaled_residuals(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    vals = np.polyval(coeffs[::-1], zs)
    mags = np.abs(zs)
    scale = np.polyval(np.abs(coeffs[::-1]), mags)
    scale = np.maximum(scale, 1e-300)
    return np.abs(vals) / scale


def _initial_guesses(c: np.ndarray) -> np.ndarray:
    """Starting points on annuli from the upper hull of (i, log|c_i|).

    Each hull segment contributes its Newton-polygon radius and as many
    equally spaced angles as its width; this keeps every particle within
    a constant factor of some root's modulus, where a single circle can
    fling particles toward infinity when the moduli spread widely.
    """
    logs = [
        (i, math.log(abs(ci))) for i, ci in enumerate(c) if ci != 0
    ]
    hull = []
    for x, y in logs:
        while len(hull) >= 2:
            (xa, ya), (xb, yb) = hull[-2], hull[-1]
            if (yb - ya) * (x - xa) <= (y - ya) * (xb - xa):
                hull.pop()
            else:
                break
        hull.append((x, y))
    bound = _root_bound(c)
    guesses = []
    for seg, ((x1, y1), (x2, y2)) in enumerate(zip(hull, hull[1:])):
        radius = min(math.exp((y1 - y2) / (x2 - x1)), bound)
        count = x2 - x1
        for j in range(count):
            theta = 2 * math.pi * (j + 0.25) / count + 0.4 + 0.7 * seg
            guesses.append(radius * complex(math.cos(theta), math.sin(theta)))
    return np.array(guesses, dtype=complex)


def _root_bound(c: np.ndarray) -> float:
    """Fujiwara bound: every root lies within this modulus.

    2 max_k |c_k / c_n|^(1/(n-k)), with c_0 halved.  Unlike Cauchy's
    1 + max_k |c_k / c_n| it stays within a small factor of the largest
    root when the coefficients span many orders of magnitude.
    """
    n = len(c) - 1
    ratios = np.abs(c[:-1]) / abs(c[-1])
    ratios[0] /= 2
    return 2.0 * float(np.max(ratios ** (1.0 / (n - np.arange(n)))))


def _horner(c: np.ndarray) -> Callable:
    """Evaluator by double Horner on the ascending coefficients ``c``."""
    rev = c[::-1]
    drev = (c[1:] * np.arange(1, len(c)))[::-1]
    return lambda z: (np.polyval(rev, z), np.polyval(drev, z))


def _far_newton(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """P(z) / P'(z) from the reversed polynomial, finite where P overflows.

    With w = 1/z and R(w) = w^n P(1/w) = sum_k c_k w^(n-k), the ratio is
    z R(w) / (n R(w) - w R'(w)); for |z| > 1 no term exceeds sum_k |c_k|.
    """
    n = len(c) - 1
    w = 1.0 / z
    r = np.polyval(c, w)
    dr = np.polyval(c[:-1] * np.arange(n, 0, -1), w)
    return z * r / (n * r - w * dr)


def _deflated(evaluate: Callable, m: int) -> Callable:
    """Evaluator of P(z) / z^m from an evaluator of P."""

    def inner(z):
        p, dp = evaluate(z)
        zm = z**m
        return p / zm, (dp - m * p / z) / zm

    return inner


def all_roots(
    coeffs: list[complex],
    max_iter: int = 400,
    tol: float = 5e-14,
    evaluate: Optional[Callable] = None,
) -> tuple[list[complex], list[float], bool]:
    """Aberth-Ehrlich iteration for every root of a dense polynomial.

    ``coeffs`` ascending; the leading coefficient must be nonzero.
    ``evaluate(z)`` returns the values and derivatives at an array of
    points.  The default, double Horner on ``coeffs``, is noise-bound: a
    particle stops moving once its value is within rounding error.  A
    given ``evaluate`` must be accurate to double resolution near the
    roots (the triangle recursion is): no particle is frozen, every one
    moves until the step test passes, and conjugate candidates merge only
    within 1e-9.  The coefficients still give the initial guesses, the
    root bound, the overflow probe and the residuals.  Exact zero roots
    are deflated first, from the evaluator too.  Returns (roots, scaled
    residuals, converged flag).
    """
    cs = [complex(c) for c in coeffs]
    if any(not math.isfinite(c.real) or not math.isfinite(c.imag) for c in cs):
        raise DegreeOverflow("coefficients exceed double range")
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        raise ValueError("need degree >= 1")
    zero_roots = []
    while cs[0] == 0:
        zero_roots.append(0j)
        cs = cs[1:]
    deg = len(cs) - 1
    if deg == 0:
        roots_arr = np.array([], dtype=complex)
        converged = True
    else:
        c = np.array(cs, dtype=complex)
        abs_rev = np.abs(c[::-1])
        noisy = evaluate is None
        if noisy:
            evaluate = _horner(c)
        elif zero_roots:
            evaluate = _deflated(evaluate, len(zero_roots))

        def noise(z):
            # Rounding bound of Horner's rule; 0 for an accurate evaluator.
            return 8.0 * np.finfo(float).eps * np.polyval(abs_rev, np.abs(z)) if noisy else 0.0

        def newton_ratio(z):
            # |P| grows like |z|^n: where it overflows, the ratio comes
            # from the reversed polynomial.  Any ratio still not finite
            # (P' vanishing, say) is NaN.
            with np.errstate(all="ignore"):
                pz, dpz = evaluate(z)
                newton = pz / dpz
                far = ~np.isfinite(newton)
                if np.any(far):
                    newton[far] = _far_newton(c, z[far])
            return pz, np.where(np.isfinite(newton), newton, np.nan)

        z = _initial_guesses(c)
        bound = _root_bound(c)
        probe = float(np.polyval(abs_rev, float(np.max(np.abs(z)))))
        if not math.isfinite(probe):
            raise DegreeOverflow(
                "polynomial values overflow double range during iteration"
            )
        escape_rotation = 0.0
        converged = False
        for _ in range(max_iter):
            pz, newton = newton_ratio(z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            absdiff = np.abs(diff)
            np.fill_diagonal(absdiff, np.inf)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            sums = inv.sum(axis=1)
            # Freeze a particle once |p(z)| is dominated by rounding
            # error: stepping it further only chases evaluation noise.
            # Exception: of two particles crowding one root, the one with
            # the larger value keeps moving so the ensemble repulsion can
            # push it towards an unclaimed root.
            partner = np.argmin(absdiff, axis=1)
            crowded = np.min(absdiff, axis=1) < 1e-5 * (1.0 + np.abs(z))
            junior = crowded & (np.abs(pz) >= np.abs(pz)[partner])
            frozen = (np.abs(pz) <= noise(z)) & ~junior
            denom = 1.0 - newton * sums
            denom = np.where(denom == 0, 1e-300, denom)
            step = np.where(frozen, 0.0, newton / denom)
            z = z - step
            # Particles flung outside the root bound, or to where P
            # overflows, cannot be near any root; pull them back onto the
            # bound circle at a fresh angle.
            runaway = ~(np.abs(z) <= 2.0 * bound)
            if np.any(runaway):
                escape_rotation += 0.83
                angles = np.angle(np.nan_to_num(z[runaway])) + escape_rotation
                z[runaway] = bound * np.exp(1j * angles)
                continue
            if np.all(frozen | (np.abs(step) <= tol * (1.0 + np.abs(z)))):
                converged = True
                break
        # Newton polish for particles still above the noise floor.  With
        # an accurate evaluator, a run that passed the step test has none.
        for _ in range(3 if noisy or not converged else 0):
            pz, newton = newton_ratio(z)
            mask = (np.abs(pz) > noise(z)) & np.isfinite(newton)
            z = np.where(mask, z - newton, z)
        if np.all(np.isreal(c)):
            # Accurate evaluation leaves errors near double resolution, so
            # it merges only much closer conjugate candidates.
            z = _symmetrize_conjugates(z, tol=1e-6 if noisy else 1e-9)
        roots_arr = z
    res = _scaled_residuals(np.array(cs, dtype=complex), roots_arr) if deg else np.array([])
    # The step criterion can chatter at the noise floor; a backward error
    # at machine scale is the real success condition.
    if deg and not converged and float(np.max(res)) < 1e-10:
        converged = True
    found = list(zero_roots) + [complex(z) for z in roots_arr]
    residuals = [0.0] * len(zero_roots) + [float(r) for r in res]
    order = sorted(
        range(len(found)), key=lambda i: (round(found[i].real, 12), round(found[i].imag, 12))
    )
    return (
        [found[i] for i in order],
        [residuals[i] for i in order],
        converged,
    )


def roots(p: Poly, slope: Optional[Slope] = None, ring: str = "parabolic") -> RootSet:
    """Root set of an arbitrary polynomial, by double Horner evaluation."""
    rs, res, ok = all_roots(to_complex_coeffs(p))
    return RootSet(slope=slope, ring=ring, roots=rs, residuals=res, converged=ok)


def cusp_candidates(s: Slope, params: Optional[GeneratorParams] = None) -> RootSet:
    """All roots of the slope's trace polynomial shifted by +2.

    These approximate the boundary of the (parabolic or cone-angle)
    slice; which of them are genuine cusp points is an open question.
    The iteration evaluates P + 2 and P' by the triangle recursion.
    """
    if s.is_infinite:
        raise FormalVertex("1/0 has no root locus")
    ring = Ring.parse("parabolic" if params is None or params.is_parabolic else params)
    engine = get_engine(ring)
    two = ring.coeff(Laurent2.const(2))
    if s.q > DEGREE_GUARD:
        warnings.warn(
            f"degree {s.q} exceeds the double-precision comfort zone "
            f"({DEGREE_GUARD}); residuals may degrade",
            stacklevel=2,
        )

    def shifted(z):
        p, dp = engine.evaluate(s, z)
        return p + two, dp

    # The coefficients only seed, bound and score the iteration, so exact
    # integers past 2**53 convert to doubles without a lossy-input warning.
    coeffs = [complex(c) for c in (engine.polynomial(s) + Poly([two])).coeffs]
    rs, res, ok = all_roots(coeffs, evaluate=shifted)
    return RootSet(slope=s, ring=ring.label, roots=rs, residuals=res, converged=ok)


def slice_cloud(q_max: int, params: Optional[GeneratorParams] = None) -> list[RootSet]:
    """Root sets for every slope with denominator up to q_max.

    Deterministic (q, p) order.  The polynomial cache is shared, so the
    whole cloud costs one recursion pass plus one root extraction per
    slope.
    """
    return [cusp_candidates(s, params) for s in enumerate_farey(q_max)]


def irrational_cusp_path(
    cf: CFExpansion, depth: int, params: Optional[GeneratorParams] = None
) -> list[RootSet]:
    """Root sets along the convergents of a continued fraction.

    Polynomials come from the fan walk (one multiplication per mediant,
    no matrix products); only the ``depth`` true convergents are root-
    solved.
    """
    convergents = (s for s, is_conv in _mediant_walk(cf) if is_conv)
    return [cusp_candidates(s, params) for s in islice(convergents, max(depth, 0))]


def extremal_root_heuristic(rs: RootSet) -> complex:
    """The root farthest from the set's centroid (exploratory only).

    Ties break towards positive imaginary part, then real part.  No claim
    is made that this recovers a true cusp.
    """
    if not rs.roots:
        raise ValueError("empty root set")
    centroid = sum(rs.roots) / len(rs.roots)
    return max(rs.roots, key=lambda z: (abs(z - centroid), z.imag, z.real))


@dataclass
class DynSysReport:
    """Pass/fail record for the cubic step map's fixed-point data."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
            for name, ok, detail in self.checks
        ]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _jacobian(c: float) -> np.ndarray:
    # Differential of (x1, x2, x3) -> (x2, x3, 8 - x1 - x2*x3) at the
    # diagonal point (c, c, c).
    return np.array([[0, 1, 0], [0, 0, 1], [-1, -c, -c]], dtype=float)


def dynsys_check(tol: float = 1e-12) -> DynSysReport:
    """Verify the two fixed points of the cubic step and their eigen data.

    Checks: f(x) = x at (2,2,2) and (-4,-4,-4); each known eigenpair of
    the Jacobian has residual below tol; the characteristic polynomials
    factor exactly over the integers; both determinants are -1.
    """
    report = DynSysReport()
    s21 = math.sqrt(21.0)
    r3 = math.sqrt(3.0)
    omega = complex(-1, r3) / 2

    for c in (2, -4):
        image = (c, c, 8 - c - c * c)
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
                resid < tol,
                f"residual {resid:.2e}",
            )
        det = int(round(float(np.linalg.det(jac))))
        report.add(f"determinant at ({c},{c},{c}) == -1", det == -1)

    # Characteristic polynomials, exactly over the integers: the Jacobian
    # is a companion matrix, so char(t) = t^3 + c t^2 + c t + 1.
    for c, quad in ((2, Poly([1, 1, 1])), (-4, Poly([1, -5, 1]))):
        char = Poly([1, c, c, 1])
        try:
            quotient = char.divmod_exact(Poly([1, 1]))
            ok = quotient == quad
        except Exception:
            ok = False
        report.add(
            f"char poly at ({c},{c},{c}) factors as (t+1)*({quad.coeffs})", ok
        )
    return report
