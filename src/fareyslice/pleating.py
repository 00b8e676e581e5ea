"""Root loci of trace polynomials: slice clouds and cusp approximations.

The roots of P + 2 are eigenvalues.  For W in SL(2),
P + 2 = tr W + 2 = det(W + I), and since every Y letter of the Farey
word is a constant times I + z c E_21 and every X letter a constant,
that determinant is det(W(0) + I) det(I - z G) for a q x q transfer
matrix G read off the word's exponents and the cone parameters
(``_transfer_matrix``).  The roots are the reciprocal eigenvalues of G,
backward-stable for G rather than for coefficients as large as 1e20
(Edelman & Murakami 1995), and one Newton correction by the triangle
recursion finishes them.  In the parabolic ring G is real, of quarter
integers, so its eigenvalues come in exact conjugate pairs: only those
with Im >= 0 are corrected, and each pair's lower root is the exact
conjugate of its upper one (``_closed``).  Of each parabolic mirror pair
p/q, (q - p)/q only the lower slope is solved; the other set is its
negation (``cusp_candidates``).

At orders (2, 2), where P = +-2 T_q((z - 2) / 2), the roots are in
closed form (``_extract``).  ``all_roots`` keeps an Aberth-Ehrlich
simultaneous iteration for any dense polynomial (Aberth 1973, Ehrlich
1967); no root set of this module runs it.

Every route has the double coefficients probe the largest root's circle
for overflow (``_probe_overflow``) and then score the result
(``_verdict``).  Reported residuals are backward-error scaled,
|P(z)| / sum_k |c_k| |z|^k: an absolute residual is meaningless for these
polynomials, whose terms reach 1e20+ at the outermost roots while
cancelling to machine precision.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .errors import DegreeOverflow, FormalVertex
from .recursion import get_engine
from .rings import (GeneratorParams, Poly, Ring, RingSpec, _exact_evaluator,
                    _over_power_of_two)
from .slopes import CFExpansion, Slope, _mediant_walk, enumerate_farey
from .words import farey_exponents

__all__ = [
    "RootSet",
    "all_roots",
    "cusp_candidates",
    "root_ring",
    "slice_cloud",
    "irrational_cusp_path",
    "extremal_root_heuristic",
]


@dataclass
class RootSet:
    """All complex roots of one slope's shifted trace polynomial P + 2.

    ``residuals`` are backward-error scaled; ``converged`` is True
    exactly when every residual is below 1e-10 (or there are no roots).
    Unconverged roots are reported anyway and flagged.
    """

    slope: Slope
    ring: str
    roots: list[complex]
    residuals: list[float]
    converged: bool = True

    def __len__(self) -> int:
        return len(self.roots)


def _taylor_shift(c: list, h) -> list:
    """Ascending coefficients of P(w + h) from those of P(z), by repeated
    synthetic division (n (n + 1) / 2 multiply-adds); exact on ints."""
    b = list(c)
    n = len(b) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            b[k] += h * b[k + 1]
    return b


def _initial_guesses(coeffs: list) -> np.ndarray:
    """Companion-matrix eigenvalues of the coefficients, about the root
    centroid.

    The coefficients, ints or anything ``complex`` accepts, are put over
    one power of two 2^e as ``rings._exact_evaluator`` puts them, real and
    imaginary numerators apart, and the variable moves to w = z - h, where
    h = a / 4 is the quarter integer nearest the real part of the root
    centroid -c_{n-1} / (n c_n), found in ints.  About z = 0 the
    coefficients of a fan's P + 2 span 1e15 while its roots lie in [0, 4],
    and for q <= 40 the eigenvalues come out up to 1.4 from the nearest
    root; about the centroid, at most 3e-4.  The shift is exact: the
    numerators times 4^(n-k) are those of 4^n P(x / 4), which shift by the
    integer a, and each over 4^(n-k) 2^e rounds once to a double.  So a
    double coefficient shifts as the exact dyadic it is, and ints and their
    exact double copies give the same guesses.

    The eigenvalues are backward-stable roots of the shifted coefficients
    (Edelman & Murakami 1995), so an accurate evaluator only has to polish
    them.  Each eigenvalue r_k (shifted back by h) is nudged by
    1e-6 |r_k| at angle 2 pi k / n + 0.4: Aberth steps keep conjugate
    symmetry, so a particle starting on the real axis would stay there, and
    a multiple root's equal eigenvalues must not start on one point, where
    the Aberth sums divide by zero.
    """
    n = len(coeffs) - 1
    cs = [c if isinstance(c, int) else complex(c) for c in coeffs]
    nums, e = _over_power_of_two([part for c in cs for part in (c.real, c.imag)])
    real, imag = nums[0::2], nums[1::2]
    num = -4 * (real[-2] * real[-1] + imag[-2] * imag[-1])
    den = n * (real[-1] ** 2 + imag[-1] ** 2)
    a = (2 * num + den) // (2 * den)  # num / den rounded, in ints
    scales = [4 ** (n - k) for k in range(n + 1)]
    real, imag = (_taylor_shift([x * s for x, s in zip(part, scales)], a) for part in (real, imag))
    try:
        h = a / 4
        d = np.array([complex(x / (s << e), y / (s << e)) for x, y, s in zip(real, imag, scales)])
    except OverflowError:
        raise DegreeOverflow("shifted coefficients exceed double range") from None
    with np.errstate(all="ignore"):
        try:
            eig = _companion_roots(d) + h
        except np.linalg.LinAlgError:  # an entry d_k / d_n overflowed
            eig = _scaled_companion_roots(d) + h
        angles = 2 * np.pi * np.arange(len(eig)) / len(eig) + 0.4
        z = eig + 1e-6 * np.abs(eig) * np.exp(1j * angles)
    if not np.all(np.isfinite(z)):
        raise DegreeOverflow("initial guesses exceed double range")
    return z


def _companion_roots(d: np.ndarray) -> np.ndarray:
    """Companion-matrix eigenvalues of ascending coefficients ``d``."""
    return np.roots((d.real if not np.any(d.imag) else d)[::-1])


def _scaled_companion_roots(d: np.ndarray) -> np.ndarray:
    """``_companion_roots`` for coefficients whose ratios d_k / d_n pass
    double range, by way of u = z / 2^s.

    2^s is the power of two at or above max_k |d_k / d_n|^(1/(n-k)), taken
    in logarithms, so every d_k 2^(s k) is at most the leading one; they
    are scaled by one more power of two that brings the leading one near
    1, and may underflow only where they barely move the roots.  Roots
    beyond double range come back infinite.
    """
    n = len(d) - 1
    with np.errstate(divide="ignore"):
        logs = np.log2(np.abs(d))
    k = np.arange(n + 1)
    s = math.ceil(float(np.max((logs[:-1] - logs[-1]) / (n - k[:-1]))))
    shift = s * k - math.ceil(logs[-1] + s * n)
    u = _companion_roots(np.ldexp(d.real, shift) + 1j * np.ldexp(d.imag, shift))
    return np.ldexp(u.real, s) + 1j * np.ldexp(u.imag, s)


# The Aberth loop's budget and step test, and the backward error below
# which ``all_roots`` reports a root set as converged.
_MAX_ITER = 400
_STEP_TOL = 5e-14
_CONVERGED_RESIDUAL = 1e-10
# The relative distance within which ``_closed`` snaps a root onto the
# axis.  It must stay below the distance of every genuine non-real root
# from the axis; the roots it snaps are accurate to double resolution.
_CONJUGATE_TOL = 1e-9


def all_roots(coeffs: list[complex]) -> tuple[list[complex], list[float], bool]:
    """Aberth-Ehrlich iteration for every root of a dense polynomial.

    ``coeffs`` ascending, as Python ints or anything ``complex`` accepts,
    all taken exactly; the leading coefficient must be nonzero.  Each
    particle's P and P' are the exact values at its double point, rounded
    once (``rings._exact_evaluator``).  Every particle moves until the step
    test passes, and the roots are returned as the loop leaves them: with
    P evaluated exactly, a settled root lies as close to a true root as its
    double resolution allows, so the roots of real coefficients come out
    conjugate-closed to that resolution with no pairing step.  The
    coefficients also give the initial guesses (their companion-matrix
    eigenvalues about the root centroid, see ``_initial_guesses``) and, as
    doubles, the overflow probe and the residuals.  The restart circle is
    the circle of the largest initial guess, where the probe found P
    finite; a particle whose Newton ratio is not finite (P overflowing,
    say), or that moves outside twice that circle, restarts on it at a
    fresh angle.  The step test, |step| <= 5e-14 |z| for every particle,
    and the guesses' nudge are relative to each root's own modulus, so no
    threshold of the loop is absolute.  The step test only ends the loop;
    a run that does not settle within the budget gets a short Newton
    polish.  Exact zero roots
    are split off first.  Returns (roots, scaled residuals, converged),
    where converged means the worst scaled residual is below 1e-10.

    Residuals and ``converged`` measure backward error against the
    coefficients as given: a cone ring's P + 2 has complex-double
    coefficients, already rounded, and at numeric(3,4) 369 of the 491
    sets with q <= 40 lie more than 1e-8 relative from the transfer-matrix
    roots or put two roots nearest one (worst 0.61 at 14/37), every one
    flagged converged.  For a Farey polynomial use ``cusp_candidates``.
    No module of the package calls this loop; its one caller outside the
    tests is the benchmark harness's ``pleating.double_only`` probe.
    """
    exact = list(coeffs)
    cs = _double_coefficients(exact)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        raise ValueError("need degree >= 1")
    zero_roots = []
    while cs[0] == 0:
        zero_roots.append(0j)
        cs = cs[1:]
    exact = exact[len(zero_roots):len(zero_roots) + len(cs)]
    c = np.array(cs, dtype=complex)
    deg = len(cs) - 1
    if deg == 0:
        z = np.array([], dtype=complex)
    else:
        evaluate = _exact_evaluator(exact)

        def newton_ratio(z):
            # A ratio that is not finite (P overflowing, P' vanishing) is
            # NaN; the loop restarts its particle.
            with np.errstate(all="ignore"):
                pz, dpz = evaluate(z)
                newton = pz / dpz
            return np.where(np.isfinite(newton), newton, np.nan)

        z = _initial_guesses(exact)
        # P is finite on the circle of the largest initial guess, or the
        # probe fails; particles restart there.
        restart = float(np.max(np.abs(z)))
        _probe_overflow(c, restart)
        escape_rotation = 0.0
        settled = False
        for _ in range(_MAX_ITER):
            newton = newton_ratio(z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            sums = inv.sum(axis=1)
            with np.errstate(all="ignore"):
                denom = 1.0 - newton * sums
                denom = np.where(denom == 0, 1e-300, denom)
                step = newton / denom
            z = z - step
            # The restart rule (see the docstring).  Each restarted
            # particle gets its own angle, so NaN ones cannot coincide.
            runaway = np.flatnonzero(~(np.abs(z) <= 2.0 * restart))
            if runaway.size:
                escape_rotation += 0.83
                spread = 2.0 * np.pi * np.arange(runaway.size) / runaway.size
                angles = np.angle(np.nan_to_num(z[runaway])) + escape_rotation + spread
                z[runaway] = restart * np.exp(1j * angles)
                continue
            if np.all(np.abs(step) <= _STEP_TOL * np.abs(z)):
                settled = True
                break
        # Newton polish, for a run that did not settle.
        for _ in range(0 if settled else 3):
            newton = newton_ratio(z)
            z = np.where(np.isfinite(newton), z - newton, z)
    return _verdict(c, z, zero_roots)


def _double_coefficients(coeffs: list) -> list[complex]:
    """The coefficients as complex doubles; ``DegreeOverflow`` past double
    range."""
    try:
        cs = [complex(c) for c in coeffs]
    except OverflowError:  # an int past double range
        raise DegreeOverflow("coefficients exceed double range") from None
    if any(not math.isfinite(c.real) or not math.isfinite(c.imag) for c in cs):
        raise DegreeOverflow("coefficients exceed double range")
    return cs


def _probe_overflow(c: np.ndarray, r: float) -> None:
    """Raise ``DegreeOverflow`` unless sum_k |c_k| r^k is finite: every
    value of the polynomial, and every residual scale, on |z| <= r is then
    finite too.  Horner's steps as np.polyval takes them, on Python floats."""
    probe = 0.0
    for a in np.abs(c[::-1]).tolist():
        probe = probe * r + a
    if not math.isfinite(probe):
        raise DegreeOverflow("polynomial values overflow double range during iteration")


def _verdict(
    c: np.ndarray, z: np.ndarray, zero_roots: Sequence[complex] = ()
) -> tuple[list[complex], list[float], bool]:
    """(roots, scaled residuals, converged) of the roots ``z`` of the
    deflated ascending coefficients ``c`` and the split-off ``zero_roots``.

    One Horner pass, the steps of ``np.polyval``, carries P at the roots
    and the scales sum_k |c_k| |z|^k side by side; the caller probes for
    overflow first (``_probe_overflow``).  Converged means the worst
    scaled residual is below 1e-10.  The roots are sorted by real part,
    then imaginary part, each rounded to 12 decimals as ``round`` rounds
    it (``_order_key``).
    """
    n = len(z)
    x = np.array([z, np.abs(z)], dtype=complex)
    rows = np.array([c, np.abs(c)]).T[::-1, :, None]
    y = np.zeros_like(x)
    with np.errstate(all="ignore"):
        for row in rows:
            y *= x
            y += row
    res = np.abs(y[0]) / np.maximum(y[1].real, 1e-300)
    converged = not n or float(np.max(res)) < _CONVERGED_RESIDUAL
    found = np.concatenate([np.zeros(len(zero_roots), dtype=complex), z])
    residuals = np.concatenate([np.zeros(len(zero_roots)), res])
    keys = _order_key(found.view(float)).reshape(-1, 2)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    return found[order].tolist(), residuals[order].tolist(), converged


def _order_key(x: np.ndarray) -> np.ndarray:
    """round(v, 12) for every element v of ``x``, bit for bit as ``round``
    gives it.

    Below 8192 the product y = v 1e12 is within half its spacing of
    v 10^12, so unless y lies within its spacing of a half-integer both
    round to the same integer m = rint(y), and round(v, 12), the double
    nearest m / 10^12, is m / 1e12: m < 2^53 and 1e12 are exact, and the
    division rounds once.  The other elements (166 of 200,000 uniform
    samples of [-4, 4], and all from 8192 on) go through ``round``.
    """
    big = np.abs(x) >= 8192
    y = np.where(big, 0.0, x) * 1e12
    m = np.rint(y)
    key = m / 1e12
    slow = big | (np.abs(np.abs(y - m) - 0.5) <= np.spacing(np.abs(y)))
    if slow.any():
        key[slow] = [round(v, 12) for v in x[slow].tolist()]
    return key


# Parabolic root sets waiting for their request: extracting either slope
# of a mirror pair p/q, (q - p)/q builds both sets (``cusp_candidates``),
# and the one not asked for is kept here until it is, then dropped.
_MIRRORS: dict[Slope, RootSet] = {}
_MIRRORS_LOCK = threading.Lock()


def root_ring(spec: Optional[RingSpec] = None) -> Ring:
    """The ring of a root computation: any spec ``Ring.parse`` accepts,
    None the parabolic ring.  The generic ring has no roots to find and
    raises ``ValueError``, as a malformed spec does."""
    ring = Ring.parse("parabolic" if spec is None else spec)
    if ring.name == "generic":
        raise ValueError("the generic ring has no roots to find")
    return ring


def cusp_candidates(s: Slope, ring: Optional[RingSpec] = None) -> RootSet:
    """All roots of the slope's trace polynomial shifted by +2, in ``ring``
    (see ``root_ring``).

    These approximate the boundary of the (parabolic or cone-angle)
    slice; which of them are genuine cusp points is an open question.
    The roots are the transfer matrix's reciprocal eigenvalues after one
    Newton correction by the triangle recursion, and at orders (2, 2) a
    closed form (``_extract``); no set runs the Aberth loop.  Every set
    lists its roots sorted by (round(re, 12), round(im, 12)).  A parabolic
    set is exactly closed under conjugation; a ``numeric(inf,inf)`` set,
    from a complex G with no mirror step, to double resolution.

    In the parabolic ring P_{(q-p)/q}(z) = P_{p/q}(-z) exactly (the mirror
    rule of ``recursion``).  Only the lower slope of such a mirror pair is
    root-solved; the upper set is its exact negation, in reverse order
    (``_mirrored``).  Either way a set depends only on its slope, not on
    the order of requests.  A lone request leaves its partner's set in the
    store until that slope is asked for.
    """
    if s.is_infinite:
        raise FormalVertex("1/0 has no root locus")
    ring = root_ring(ring)
    if ring.name != "parabolic" or 2 * s.p == s.q:
        return _extract(s, ring)
    with _MIRRORS_LOCK:
        served = _MIRRORS.pop(s, None)
    if served is not None:
        return served
    solved, mine = _solved(s, ring)
    partner = _mirrored(solved) if mine is solved else solved
    with _MIRRORS_LOCK:
        # Another thread may have left this slope's set here meanwhile;
        # it is the same set, and the pair keeps one entry.
        _MIRRORS.pop(s, None)
        _MIRRORS[partner.slope] = partner
    return mine


def _solved(s: Slope, ring: Ring) -> tuple[RootSet, RootSet]:
    """(the set root-solved, the slope's set), with no mirror store.  They
    are one set, except at an upper parabolic slope p/q, 2p > q, whose set
    is the negation of the one solved for (q - p)/q."""
    if ring.name != "parabolic" or 2 * s.p <= s.q:
        rs = _extract(s, ring)
        return rs, rs
    lower = _extract(Slope(s.q - s.p, s.q), ring)
    return lower, _mirrored(lower)


# At orders (2, 2), alpha = beta = i and X^2 = Y^2 = -I, so each inverse
# letter is minus its letter and the Farey word is W = sigma (YX)^q, where
# sigma = +-1 is the leading coefficient of P.  With tr(YX) = z - 2 and
# tr M^q = 2 T_q(tr M / 2) in SL(2), P = sigma 2 T_q((z - 2) / 2), and at
# z = 4 sin^2(m pi / (2q)) = 2 - 2 cos(m pi / q) it is sigma 2 (-1)^(q + m).
# So the q roots of P + 2 are these points for m = q - 2j - [sigma > 0],
# j = 0 .. q - 1, all in [0, 4].  Where +-m coincide the root is double,
# and the transfer-matrix route breaks: one Newton correction divides
# noise by P' ~ 0 there, and det(W(0) + I) = P(0) + 2 vanishes where 0 is
# a root.
_INVOLUTION_RING = Ring.parse("numeric(2,2)")


def _extract(s: Slope, ring: Ring) -> RootSet:
    """All roots of the slope's P + 2.

    They are the reciprocal eigenvalues of the word's transfer matrix
    (``_transfer_matrix``), each moved by one Newton correction from the
    triangle recursion.  Where G is real (the parabolic ring) only those
    with Im >= 0 are corrected, and the others are the exact conjugates of
    the moved ones (``_closed``): the split comes before the correction,
    so a pair that the correction snaps onto the axis keeps both its
    roots.  Orders (2, 2) are the exception: their roots are in closed
    form (``_INVOLUTION_RING``), exactly 0 and 4 where m = 0 and m = +-q.
    The coefficients only probe for overflow and score the roots, so
    exact integers past 2**53 may round to doubles.
    """
    engine = get_engine(ring)
    two = ring.coeff(2)
    coeffs = (engine.polynomial(s) + Poly([two])).coeffs
    c = np.array(_double_coefficients(coeffs))
    if ring == _INVOLUTION_RING:
        _probe_overflow(c, 4.0)
        m = s.q - 2 * np.arange(s.q) - (c[-1].real > 0)
        rs, res, ok = _verdict(c, 4 * np.sin(m * np.pi / (2 * s.q)) ** 2 + 0j)
    else:
        g = _transfer_matrix(s, ring.params)
        z = 1.0 / np.linalg.eigvals(g)
        _probe_overflow(c, float(np.max(np.abs(z))))
        real = not np.iscomplexobj(g)
        if real:
            z = z[z.imag >= 0]
        with np.errstate(all="ignore"):
            p, dp = engine.evaluate(s, z)
            newton = (p + two) / dp
        w = np.where(np.isfinite(newton), z - newton, z)
        rs, res, ok = _verdict(c, _closed(w, z.imag > 0) if real else w)
    return RootSet(slope=s, ring=ring.label, roots=rs, residuals=res, converged=ok)


def _transfer_matrix(s: Slope, params: Optional[GeneratorParams] = None) -> np.ndarray:
    """A q x q matrix G with P_{p/q}(z) + 2 = det(W(0) + I) det(I - z G).

    ``params`` None is the parabolic ring, alpha = beta = 1.  Every
    constant letter of ``oracle.gen_matrix`` is upper triangular,
    [[x, y], [0, 1/x]]: X^+-1 has x = alpha^+-1 and y = +-1, and
    Y^eps = D (I + z c E_21) with D = diag(beta^eps, beta^-eps), y = 0 and
    c = eps beta^eps.  So is each prefix product in word order,
    [[a, b], [0, 1/a]]: a = cumprod(x), and a b gains a_prev^2 x y per
    letter.  With a_k, b_k, c_k those of the k-th Y letter (its D
    included), moving each rank-one update left through the constants
    gives W = (I + z u_1 w_1^T) ... (I + z u_q w_q^T) W(0), where
    u_k = c_k (b_k, 1/a_k)^T and w_k^T = (1/a_k, -b_k); that is
    (I + z U (I - z N)^-1 B) W(0) with N_jk = w_j^T u_k for j < k.  As
    P + 2 = tr W + 2 = det(W + I) in SL(2), Sylvester's identity and
    det(I - z N) = 1 give G = N - B K U, with K = W(0) (W(0) + I)^-1 =
    [[A/(A+1), A B'/(A+1)^2], [0, 1/(A+1)]] for W(0) = [[A, B'], [0, 1/A]].

    With h = a b, G = diag(1/a) M diag(c/a) for the symmetric M with
    M_jk = K_22 h_k - K_11 h_j - K_12 (j < k).  The similar M diag(c/a^2)
    is returned (|a_k| = 1 in every ring), rows and columns in reverse
    word order, the order the letters act on a vector.  It is invertible,
    since P + 2 has degree q.  In the parabolic ring a = 1, c = eps,
    K_11 = K_22 = 1/2, K_12 = N/4 for N the sum of the X exponents, and
    det(W(0) + I) = 4: the entries are multiples of 1/4, exact in doubles,
    and G is real.  There G = A diag(eps) with A symmetric; measured, not
    proved: A^-1 is an integer cyclic tridiagonal matrix with entries in
    {0, +-1, +-2} for every slope with 3 <= q <= 60.
    """
    e = np.array(farey_exponents(s))
    eps, ex = e[0::2], e[1::2]  # the Y and the X letters, in word order
    alpha, beta = (1.0, 1.0) if params is None else (params.alpha, params.beta)
    x = np.array([beta, alpha] * s.q) ** e
    a = np.cumprod(x)
    ay = a[0::2]  # a at each Y letter, its D included
    hx = np.cumsum(ay * a[1::2] * ex)  # a b after each X letter
    h = np.concatenate(([0], hx[:-1]))  # a b at each Y letter: D has y = 0
    k22 = 1 / (a[-1] + 1)
    k11, k12 = a[-1] * k22, hx[-1] * k22 * k22
    hk, hm = k22 * h, k11 * h
    # For j >= k, -(K_11 h_k - K_22 h_j): a zero on the parabolic diagonal
    # is then -0.0, and eigvals' output bits see the sign.
    r = np.arange(s.q)
    m = np.where(r[:, None] < r, hk - hm[:, None], -(hm - hk[:, None])) - k12
    return (m * (eps * x[0::2] / (ay * ay)))[::-1, ::-1]  # c = eps beta^eps


def _closed(w: np.ndarray, paired: np.ndarray) -> np.ndarray:
    """The whole root set of a real polynomial from its roots ``w`` with
    Im >= 0, where ``paired`` marks those that stand for a conjugate pair.

    Near-real roots (within ``_CONJUGATE_TOL`` relative) are snapped onto
    the axis, and a snapped paired root keeps its twin, so the count stays.  Every
    other paired root is joined by its exact conjugate; adding 0.0 turns
    negative zero parts into +0.0.
    """
    near_real = np.abs(w.imag) <= _CONJUGATE_TOL * (1.0 + np.abs(w))
    w = np.where(near_real, w.real, w) + 0.0
    return np.concatenate([w, w[paired].conj() + 0.0])


def _mirrored(rs: RootSet) -> RootSet:
    """The parabolic root set of the mirror slope (q - p)/q: every root of
    the p/q set negated.

    Adding 0.0 turns the negated zero parts into +0.0.  The residuals and
    the converged flag carry over exactly: Horner on the mirror's
    coefficients (-1)^k c_k at -z forms the same partial sums up to sign.
    Since round(-v, 12) = -round(v, 12), the negated roots in reverse
    order are sorted as ``_verdict`` sorts, with no second sort.
    """
    return RootSet(
        slope=Slope(rs.slope.q - rs.slope.p, rs.slope.q),
        ring=rs.ring,
        roots=[complex(-z.real + 0.0, -z.imag + 0.0) for z in reversed(rs.roots)],
        residuals=rs.residuals[::-1],
        converged=rs.converged,
    )


def slice_cloud(q_max: int, ring: Optional[RingSpec] = None) -> list[RootSet]:
    """Root sets in ``ring`` for every slope with denominator up to q_max.

    Deterministic (q, p) order.  The polynomial cache is shared, so the
    whole cloud costs one recursion pass plus one root extraction per
    slope in a cone ring, and per mirror pair p/q, (q - p)/q in the
    parabolic ring (see ``cusp_candidates``).
    """
    return [cusp_candidates(s, ring) for s in enumerate_farey(q_max)]


def irrational_cusp_path(
    cf: CFExpansion, depth: int, ring: Optional[RingSpec] = None
) -> list[RootSet]:
    """Root sets in ``ring`` along the convergents of a continued fraction.

    Polynomials come from the fan walk (at most one multiplication per
    mediant, no matrix products); only the ``depth`` true convergents are
    root-solved, as ``cusp_candidates`` solves them but with no mirror
    store: a path's denominators increase, so it never asks for both of a
    pair.  The ring is checked first (``root_ring``), even at depth 0.
    """
    ring = root_ring(ring)
    convergents = (s for s, is_conv in _mediant_walk(cf) if is_conv)
    return [_solved(s, ring)[1] for s in islice(convergents, max(depth, 0))]


def extremal_root_heuristic(rs: RootSet) -> complex:
    """The root farthest from the set's centroid (exploratory only).

    Ties break towards positive imaginary part, then real part.  No claim
    is made that this recovers a true cusp.
    """
    if not rs.roots:
        raise ValueError("empty root set")
    centroid = sum(rs.roots) / len(rs.roots)
    return max(rs.roots, key=lambda z: (abs(z - centroid), z.imag, z.real))
