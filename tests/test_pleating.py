import cmath
import math
import random
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from fareyslice import (
    CFExpansion,
    GeneratorParams,
    Poly,
    Slope,
    enumerate_farey,
    farey_polynomial,
)
from fareyslice import oracle, pleating, recursion, rings, serialize
from fareyslice.errors import DegreeOverflow, FormalVertex
from fareyslice.words import farey_exponents

def assert_root_set_properties(rs, coeffs):
    """Criterion 11 on one root set of the polynomial with ``coeffs``:
    count, residual < 1e-8, converged, conjugation closure and the Vieta
    sum to 1e-8."""
    q = rs.slope.q
    assert len(rs.roots) == q
    assert max(rs.residuals) < 1e-8
    assert rs.converged
    for z in rs.roots:
        assert any(abs(z.conjugate() - w) < 1e-8 for w in rs.roots), (rs.slope, z)
    if q >= 2:
        want = -coeffs[q - 1] / coeffs[q]
        assert abs(sum(rs.roots) - want) <= 1e-8 * max(1.0, abs(want)), rs.slope


def S(text):
    return Slope.parse(text)


def test_roots_simple_polynomials():
    found, residuals, _ = pleating.all_roots(Poly([4, 0, 1]).coeffs)
    assert sorted((round(z.real, 9), round(z.imag, 9)) for z in found) == [
        (0, -2), (0, 2),
    ]
    assert max(residuals) < 1e-12
    found, _, _ = pleating.all_roots(Poly([4, -1]).coeffs)
    assert abs(found[0] - 4) < 1e-12


def test_roots_with_zero_roots_deflated():
    found, _, _ = pleating.all_roots(Poly([0, 0, -1, 1]).coeffs)  # z^2 (z - 1)
    assert sorted(round(abs(z), 9) for z in found) == [0.0, 0.0, 1.0]


def test_roots_rejects_overflowing_coefficients():
    with pytest.raises(DegreeOverflow):
        pleating.all_roots([1.0, float("inf")])
    # finite coefficients whose root -1e616 lies past double range; the
    # scaled guesses must raise without an overflow warning
    with pytest.raises(DegreeOverflow):
        pleating.all_roots([1e308, 1e-308])


def test_roots_whose_coefficient_ratios_pass_double_range():
    # c_0 / c_2 = 1e600 overflows the companion matrix, but the roots
    # +-1e300 i are doubles: the guesses come from a power-of-two scaling
    # of z
    found, residuals, converged = pleating.all_roots([1e300, 0, 1e-300])
    assert converged
    assert found == pytest.approx([-1e300j, 1e300j], rel=1e-12)
    assert max(residuals) < 1e-14


# The nudge and the step test are relative to each root's own modulus, so
# roots of z^2 + e^2 come out as +-e i at any scale.
def test_tiny_roots_are_resolved_without_warning():
    for c0, e in ((1e-30, 1e-15), (1e-200, 1e-100)):
        # Particles must not coincide in the Aberth sums' divisions.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            found, residuals, converged = pleating.all_roots([c0, 0, 1])
        assert sorted(found, key=lambda z: z.imag) == pytest.approx([-e * 1j, e * 1j], rel=1e-12)
        assert converged


def test_roots_of_very_different_moduli_are_resolved():
    # Thresholds scaled by the largest root alone, 1e12 here, would leave
    # the four roots of modulus 1e-6 unresolved.
    p = Poly([-1, 10**6]) * Poly([-2, 10**6]) * Poly([1, 0, 10**12]) * Poly([-(10**12), 1])
    found, residuals, converged = pleating.all_roots(p.coeffs)
    assert converged and len(found) == 5
    for w in (1e-6, 2e-6, 1e-6j, -1e-6j, 1e12):
        assert min(abs(z - w) for z in found) <= 1e-12 * abs(w), w


def test_initial_guesses_of_double_copies_equal_those_of_ints():
    # A double coefficient shifts as the exact dyadic it is, so the exact
    # complex copies of the parabolic P + 2 (below 2**53 for q <= 40) get
    # the int coefficients' guesses bit for bit.
    for s in enumerate_farey(40):
        ints = (farey_polynomial(s) + Poly([2])).coeffs
        want = pleating._initial_guesses(ints)
        assert pleating._initial_guesses([complex(c) for c in ints]).tobytes() == want.tobytes(), s


def test_roots_of_modulus_1e_6_are_resolved():
    found, residuals, converged = pleating.all_roots(Poly([1e-12, 0, 1]).coeffs)
    assert found == pytest.approx([-1e-6j, 1e-6j], rel=1e-15)
    assert max(residuals) < 1e-15 and converged
    # Both roots of modulus 1e-10 round to 0 in the sort key, so they are
    # compared in order of Im.
    found, residuals, converged = pleating.all_roots([1e-20, 0, 1])
    assert sorted(found, key=lambda z: z.imag) == pytest.approx([-1e-10j, 1e-10j], rel=1e-12)
    assert max(residuals) < 1e-15 and converged


def test_roots_rejects_overflowing_evaluation():
    # finite coefficients whose evaluation overflows doubles on the circle
    # of the largest root; the probe itself must not warn (RuntimeWarnings
    # are errors under pytest).  Each mirror partner raises too: its set
    # is derived from the same extraction.  The coefficients of 1/800
    # (1104 bits) leave double range before any probe.  These pin the
    # 1024-bit ceiling of the double coefficients.
    cases = [(Slope(610, 987), "during iteration"), (Slope(377, 987), "during iteration"),
             (Slope(1, 450), "during iteration"), (Slope(1, 800), "coefficients exceed")]
    for s, match in cases:
        with pytest.raises(DegreeOverflow, match=match):
            pleating.cusp_candidates(s)


def test_all_roots_probes_the_restart_circle_for_overflow():
    # The roots of the first, near -1e308 and -1, overflow the shift to
    # their centroid.  The guesses of the second, +-1e308, are finite, but
    # sum |c_k| r^k overflows on their circle, where particles restart.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegreeOverflow, match="shifted coefficients"):
            pleating.all_roots([1e308, 1e308, 1])
        with pytest.raises(DegreeOverflow, match="during iteration"):
            pleating.all_roots([-1e308, 0, 1e-308])


def test_cusp_candidates_at_q_400(no_mirrors):
    # The transfer-matrix roots need no coefficients, and P + 2 stays
    # finite on the circle of the largest root, |z| < 4.  The exact
    # Newton correction (``_exact_evaluator`` rounds P and P' once) is
    # checked on 1/400; 399/400 is its exact negation.
    lower = pleating.cusp_candidates(Slope(1, 400))
    upper = pleating.cusp_candidates(Slope(399, 400))
    for rs in (lower, upper):
        assert len(rs.roots) == 400 and rs.converged
        assert all(z.conjugate() in rs.roots for z in rs.roots), rs.slope
    assert sorted(upper.roots, key=lambda z: (z.real, z.imag)) == sorted(
        (complex(-z.real + 0.0, -z.imag + 0.0) for z in lower.roots),
        key=lambda z: (z.real, z.imag),
    )
    z = np.array(lower.roots)
    shifted = (farey_polynomial(Slope(1, 400), "parabolic") + Poly([2])).coeffs
    p, dp = rings._exact_evaluator(shifted)(z)
    assert np.all(np.abs(p / dp) <= 1e-12 * (1 + np.abs(z)))


# Past q = 128: P + 2 is still finite on the circle of the largest root
# (|z| < 4) for these slopes, so the overflow probe passes.
@pytest.mark.parametrize(
    "s",
    [Slope(1, 129), Slope(169, 239), Slope(1, 256), Slope(233, 377)],
    ids=["1/129", "169/239", "1/256", "233/377"],
)
def test_cusp_candidates_past_q_128(s):
    rs = pleating.cusp_candidates(s)
    assert_root_set_properties(rs, farey_polynomial(s, "parabolic").coeffs)


def test_roots_of_a_double_root():
    # (z - 2)^2: the two equal eigenvalues start apart, so the Aberth sums
    # never divide by zero (RuntimeWarnings are errors under pytest).
    found, _, _ = pleating.all_roots(Poly([4, -4, 1]).coeffs)
    assert len(found) == 2 and all(abs(z - 2) < 1e-6 for z in found)


def test_taylor_shift_is_exact_on_ints():
    # (z - 3)^3 (z + 1) about h = 3: w^3 (w + 4)
    c = (Poly([-3, 1]) * Poly([-3, 1]) * Poly([-3, 1]) * Poly([1, 1])).coeffs
    assert pleating._taylor_shift(c, 3) == [0, 0, 0, 4, 1]
    assert pleating._taylor_shift([5, -2, 7], 0) == [5, -2, 7]


# all_roots on the expanded coefficients against the recursion-evaluated
# roots.  1/24: about z = 0 the companion guesses of P + 2 were wrong
# enough that double Horner polishing sent two of them to one root.  1/44
# and 2/49 have coefficients past 2**53; double Horner froze particles at
# its noise floor, 2/49's up to 1.77 from the nearest root.
@pytest.mark.parametrize("s", [S("1/24"), S("1/44"), S("2/49")], ids=["1/24", "1/44", "2/49"])
def test_roots_finds_the_recursion_roots(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = np.array(pleating.all_roots((farey_polynomial(s) + Poly([2])).coeffs)[0])
    accurate = np.array(pleating.cusp_candidates(s).roots)
    dist = np.abs(found[:, None] - accurate[None, :])
    assert len(set(dist.argmin(axis=1).tolist())) == len(found) == s.q
    assert np.all(dist.min(axis=1) <= 1e-12 * np.maximum(1.0, np.abs(found)))


def _fraction_horner(coeffs, z):
    """Exact P(z) as (real, imag) Fractions, by Horner's rule on
    coefficients given as (real, imag) Fractions."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    for cr, ci in reversed(coeffs):
        re, im = re * x - im * y + cr, re * y + im * x + ci
    return re, im


def _random_coeffs(rng, kind, n):
    if kind == "int":
        return [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 200)) for _ in range(n)]
    if kind == "complex":
        return [complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(n)]
    return [rng.uniform(-10, 10) * 10.0 ** rng.randint(-300, 299) for _ in range(n)]


@pytest.mark.parametrize("kind", ["int", "complex", "wide"])
def test_exact_evaluator_rounds_once(kind):
    # Ints past 2**53, complex doubles and doubles from 1e-300 to 1e300:
    # P and P' are the correctly rounded exact values, bit for bit.
    rng = random.Random(12)
    for _ in range(40):
        coeffs = _random_coeffs(rng, kind, rng.randint(2, 9))
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        exact = [(Fraction(c.real), Fraction(c.imag)) for c in coeffs]
        deriv = [(k * cr, k * ci) for k, (cr, ci) in enumerate(exact)][1:]
        z = [0j, complex(rng.uniform(-2, 2), 0.0)] + [
            cmath.rect(10.0 ** rng.uniform(-3, 0.3), rng.uniform(-math.pi, math.pi))
            for _ in range(6)
        ]
        p, dp = rings._exact_evaluator(coeffs)(np.array(z))
        for k, w in enumerate(z):
            for got, poly in ((p[k], exact), (dp[k], deriv)):
                re, im = _fraction_horner(poly, w)
                want = (float(re).hex(), float(im).hex())
                assert (got.real.hex(), got.imag.hex()) == want, (coeffs, w)


def test_exact_evaluator_overflows_to_infinity():
    # 1e300 z^2 at |z| = 1e10 is 1e320: infinite, not an OverflowError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, dp = rings._exact_evaluator([0, 0, 1e300])(np.array([1e10 + 0j, -1e10j]))
    assert p[0].real == math.inf and p[1].real == -math.inf
    assert dp[0].real == math.inf and dp[1].imag == -math.inf


def _counted_evaluate(monkeypatch) -> list:
    """The slopes of every later evaluator call, in order."""
    evaluate = recursion.FareyPolynomialEngine.evaluate
    calls = []

    def counted(self, s, z):
        calls.append(s)
        return evaluate(self, s, z)

    monkeypatch.setattr(recursion.FareyPolynomialEngine, "evaluate", counted)
    return calls


@pytest.fixture
def no_mirrors(monkeypatch):
    """An empty store of mirror root sets for the test."""
    monkeypatch.setattr(pleating, "_MIRRORS", {})


def test_cusp_candidates_iteration_budget(monkeypatch, no_mirrors):
    # Every extracted parabolic set takes exactly one evaluator call, the
    # Newton correction of its transfer-matrix roots, fans 1/q and
    # (q - 1)/q included.  In (q, p) order each upper slope of a mirror
    # pair comes after its lower partner and takes no call.  The converged
    # flag is the residual test.
    calls = _counted_evaluate(monkeypatch)
    for s in enumerate_farey(30):
        calls.clear()
        rs = pleating.cusp_candidates(s)
        assert rs.converged, s
        assert calls == ([] if 2 * s.p > s.q else [s]), s
        assert rs.converged == (max(rs.residuals) < 1e-10), s
    assert pleating._MIRRORS == {}


def test_cone_ring_iteration_budget(monkeypatch):
    # Every cone set takes exactly one evaluator call, the Newton correction
    # of its transfer-matrix roots; no mirror set is derived.
    params = GeneratorParams(3, 4)
    calls = _counted_evaluate(monkeypatch)
    for s in enumerate_farey(30):
        calls.clear()
        rs = pleating.cusp_candidates(s, params)
        assert rs.converged, s
        assert calls == [s], s
        assert rs.converged == (max(rs.residuals) < 1e-10), s


def _charpoly(a: list[list[int]]) -> list[int]:
    """Ascending coefficients of det(mu I - a) for an integer matrix, by
    Faddeev-LeVerrier: M_k = a M_(k-1) + c_(n-k+1) I and
    c_(n-k) = -tr(a M_k) / k, exact in integers."""
    n = len(a)
    c = [0] * n + [1]
    am = [[0] * n for _ in range(n)]  # a M_0, M_0 = 0
    for k in range(1, n + 1):
        m = [[am[i][j] + (c[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c[n - k], rest = divmod(-sum(am[i][i] for i in range(n)), k)
        assert rest == 0
    return c


def test_transfer_matrix_determinant_is_p_plus_2():
    # P + 2 = 4 det(I - z G) exactly.  G's entries are quarter integers,
    # so H = 4 G is an integer matrix with det(I - (z/4) H) =
    # sum_m chi_(n-m) (z/4)^m, chi its characteristic polynomial.
    for s in enumerate_farey(14):
        g = pleating._transfer_matrix(s)
        h = [[Fraction(x) * 4 for x in row] for row in g.tolist()]
        assert all(x.denominator == 1 for row in h for x in row), s
        chi = _charpoly([[int(x) for x in row] for row in h])
        got = [Fraction(4 * chi[s.q - m], 4**m) for m in range(s.q + 1)]
        for poly in (recursion.farey_polynomial(s), oracle.farey_polynomial(s, "parabolic")):
            assert got == (poly + Poly([2])).coeffs, s


def test_transfer_matrix_inverse_is_integer_cyclic_tridiagonal():
    # G = A diag(eps) with A symmetric, 4A integral, and A^-1 = T an
    # integer matrix with entries in {0, +-1, +-2}, nonzero only on the
    # three middle diagonals and in the two corners: 4A T = 4I exactly,
    # in int64, for every slope with 3 <= q <= 60.
    for s in enumerate_farey(60):
        if s.q < 3:
            continue
        eps = np.array(farey_exponents(s))[-2::-2]
        assert set(eps.tolist()) <= {-1, 1}, s
        a4 = 4 * pleating._transfer_matrix(s) * eps
        a = a4.astype(np.int64)
        assert np.array_equal(a, a4) and np.array_equal(a, a.T), s
        t = np.rint(np.linalg.inv(a4 / 4)).astype(np.int64)
        assert np.array_equal(a @ t, 4 * np.eye(s.q, dtype=np.int64)), s
        gap = np.abs(np.subtract.outer(np.arange(s.q), np.arange(s.q)))
        assert not t[(gap > 1) & (gap < s.q - 1)].any(), s
        assert np.abs(t).max() <= 2, s


# det(W(0) + I) det(I - z G) = P + 2 in every ring the eigenvalue route
# serves, det(W(0) + I) being P(0) + 2, against the matrix oracle at three
# random points per slope, scaled as the residuals are (measured worst
# 2.0e-14, at (2,3)).  The parabolic identity is also checked exactly
# above.
@pytest.mark.parametrize(
    "params",
    [None, GeneratorParams(3, 4), GeneratorParams(5, 7), GeneratorParams(2, 3),
     GeneratorParams(3, math.inf)],
    ids=["parabolic", "3,4", "5,7", "2,3", "3,inf"],
)
def test_transfer_matrix_determinant_in_every_ring(params):
    rng = np.random.default_rng(14)
    for s in enumerate_farey(14):
        g = pleating._transfer_matrix(s, params)
        shifted = oracle.farey_polynomial(s, params or "parabolic") + Poly([2])
        c = np.array([complex(x) for x in shifted.coeffs])
        for z in rng.standard_normal(3) + 1j * rng.standard_normal(3):
            lhs = c[0] * np.linalg.det(np.eye(s.q) - z * g)
            err = abs(lhs - np.polyval(c[::-1], z)) / np.polyval(np.abs(c[::-1]), abs(z))
            assert err < 1e-12, (s, z, err)


def _inclusion_certified(coeffs, z, bound) -> bool:
    """Whether the inclusion disks D(z_i, q |W_i|) of the roots ``z`` of the
    polynomial with ascending ``coeffs`` are pairwise disjoint, each of
    radius at most ``bound`` max(1, |z_i|).

    W_i = P(z_i) / (c_q prod_(j != i) (z_i - z_j)) is the Weierstrass
    correction, with P(z_i) from ``rings._exact_evaluator``.  The q disks
    cover every root, and a connected union of m of them holds exactly m
    (Braess & Hadeler 1973; Carstensen 1991): disjoint disks prove the set
    complete, its roots simple, and each within its radius of a true root.
    """
    p, _ = rings._exact_evaluator(coeffs)(z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        radii = len(z) * np.abs(p / (complex(coeffs[-1]) * diff.prod(axis=1)))
    gaps = np.abs(z[:, None] - z[None, :]) - (radii[:, None] + radii[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(np.all(gaps > 0) and np.all(radii <= bound * np.maximum(1.0, np.abs(z))))


# The eigenvalue route's roots certified by inclusion disks on P + 2: the
# parabolic coefficients are exact ints, the numeric(3,4) ones the complex
# doubles as given.  Measured worst radius over max(1, |z|): 4.1e-14
# parabolic (q <= 24) and 1.7e-7 at (3,4) (q <= 16), where the rounded
# coefficients move their roots more as q grows.  A root moved by 1e-6
# relative, or replaced by a copy of another, is not certified.
def test_transfer_matrix_roots_are_certified_by_inclusion_disks(no_mirrors):
    cases = [(None, s, 1e-13) for s in enumerate_farey(24)]
    cases += [(GeneratorParams(3, 4), s, 5e-7) for s in enumerate_farey(16)]
    for params, s, bound in cases:
        z = np.array(pleating.cusp_candidates(s, params).roots)
        shifted = (farey_polynomial(s, params or "parabolic") + Poly([2])).coeffs
        assert len(z) == s.q and _inclusion_certified(shifted, z, bound), s
        if s.q >= 2:
            moved, copied = z.copy(), z.copy()
            moved[-1] *= 1 + 1e-6
            copied[-1] = z[0]
            assert not _inclusion_certified(shifted, moved, bound), s
            assert not _inclusion_certified(shifted, copied, bound), s


def _is_negative_zero(x: float) -> bool:
    return x == 0 and math.copysign(1.0, x) < 0


def test_mirror_sets_are_exact_negations(no_mirrors):
    # P_{(q-p)/q}(z) = P_{p/q}(-z): the upper set is the lower one negated,
    # root for root with the same residuals, and no part prints as -0.0.
    for s in enumerate_farey(40):
        if 2 * s.p >= s.q:
            continue
        lower = pleating.cusp_candidates(s)
        upper = pleating.cusp_candidates(Slope(s.q - s.p, s.q))
        assert upper.slope == Slope(s.q - s.p, s.q) and upper.converged == lower.converged
        negated = {-z: r for z, r in zip(lower.roots, lower.residuals)}
        assert dict(zip(upper.roots, upper.residuals)) == negated, s
        assert len(upper.roots) == s.q
        assert not any(_is_negative_zero(x) for z in upper.roots for x in (z.real, z.imag)), s
        assert upper.roots == sorted(upper.roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


def _cloud(slopes):
    """Each slope's (roots, residuals, converged), requested in order."""
    sets = (pleating.cusp_candidates(s) for s in slopes)
    return {rs.slope: (rs.roots, rs.residuals, rs.converged) for rs in sets}


def test_mirror_sets_do_not_depend_on_request_order(no_mirrors):
    # A shuffled order asks for some upper slopes before their partners.
    # Once both slopes of every pair are served, the store is empty again.
    slopes = enumerate_farey(20)
    want = _cloud(slopes)
    assert pleating._MIRRORS == {}
    shuffled = list(slopes)
    random.Random(3).shuffle(shuffled)
    assert _cloud(shuffled) == want
    assert pleating._MIRRORS == {}


def test_cone_ring_extracts_both_mirror_slopes(monkeypatch, no_mirrors):
    # In numeric(3,4) the mirror identity fails (2/5 and 3/5 differ by 37 in
    # one coefficient), so 3/5 is root-solved on its own.
    params = GeneratorParams(3, 4)
    calls = _counted_evaluate(monkeypatch)
    pleating.cusp_candidates(S("2/5"), params)
    calls.clear()
    pleating.cusp_candidates(S("3/5"), params)
    assert calls and set(calls) == {S("3/5")}


def test_concurrent_mirror_requests_match_one_thread(no_mirrors):
    # Eight threads in rotated orders race on the store: whichever thread
    # extracts a pair, every set is the one a single thread computes.
    slopes = enumerate_farey(12)
    want = _cloud(slopes)
    start = threading.Barrier(8)

    def work(k):
        start.wait(timeout=60)
        return _cloud(slopes[k * 5:] + slopes[:k * 5])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, k) for k in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got == want


def _round_key(z):
    return round(z.real, 12), round(z.imag, 12)


def test_order_key_is_round_to_12_decimals():
    # Bit for bit, on uniform samples, on doubles next to the half-integers
    # of the 12th decimal (where x * 1e12 can round across them), on -0.0
    # and subnormals, and from 8192 on up to 1e300.
    rng = np.random.default_rng(20)
    halves = (rng.integers(-4 * 10**12, 4 * 10**12, 2000) + 0.5) / 1e12
    near = np.concatenate([np.nextafter(halves, side) for side in (-np.inf, np.inf)])
    x = np.concatenate([
        rng.uniform(-4, 4, 200_000),
        halves,
        near,
        np.nextafter(near, np.inf),
        rng.uniform(-1e4, 1e4, 2000),
        [0.0, -0.0, 5e-324, -1e-13, 5e-13, 8191.9999999999995, 8192.0, -8192.5, 1e300, -1e300],
    ])
    want = [round(v, 12).hex() for v in x.tolist()]
    assert [v.hex() for v in pleating._order_key(x).tolist()] == want


def test_residuals_are_the_polyval_residuals(no_mirrors):
    # ``_verdict``'s one Horner pass against separate np.polyval calls for
    # the values and the scales, bit for bit, on parabolic sets (lower,
    # upper and 1/2) and numeric(3,4) sets.
    for s, params in [(s, None) for s in enumerate_farey(16)] + [
        (s, GeneratorParams(3, 4)) for s in enumerate_farey(10)
    ]:
        rs = pleating.cusp_candidates(s, params)
        shifted = farey_polynomial(s, params or "parabolic") + Poly([2])
        c = np.array([complex(x) for x in shifted.coeffs])[::-1]
        z = np.array(rs.roots)
        scale = np.maximum(np.polyval(np.abs(c), np.abs(z)), 1e-300)
        want = np.abs(np.polyval(c, z)) / scale
        assert rs.residuals == want.tolist(), s


def test_root_sets_are_sorted_by_rounded_parts(no_mirrors):
    # The order contract: each set lists its roots as sorting by
    # (round(re, 12), round(im, 12)) does.  Parabolic sets (lower, upper
    # and 1/2) are also exactly closed under conjugation.
    for rs in pleating.slice_cloud(40):
        assert rs.roots == sorted(rs.roots, key=_round_key), rs.slope
        assert all(z.conjugate() in rs.roots for z in rs.roots), rs.slope
    for rs in pleating.slice_cloud(20, GeneratorParams(3, 4)):
        assert rs.roots == sorted(rs.roots, key=_round_key), rs.slope
    # Parts past 8192 take ``_order_key``'s ``round`` path: the roots
    # +-1e5 i of z^2 + 1e10, given in the wrong order.
    found, residuals, converged = pleating._verdict(np.array([1e10, 0, 1], dtype=complex),
                                                    np.array([1e5j, -1e5j]))
    assert found == sorted(found, key=_round_key) == [-1e5j, 1e5j]
    assert residuals == [0.0, 0.0] and converged


def test_roots_are_conjugate_closed():
    # The Aberth loop has no pairing step: with P evaluated exactly, the
    # roots of a real polynomial come out conjugate-closed to rounding.
    rng = np.random.default_rng(11)
    polys = [rng.integers(-50, 51, size=n + 1).tolist() for n in rng.integers(2, 31, size=100)]
    polys += [rng.standard_normal(n + 1).tolist() for n in rng.integers(2, 31, size=16)]
    for c in polys:
        c[-1] = c[-1] or 1
        found = np.array(pleating.all_roots(Poly(c).coeffs)[0])
        gaps = np.abs(found.conjugate()[:, None] - found[None, :]).min(axis=1)
        assert np.all(gaps <= 1e-12 * np.abs(found)), c


def test_cusp_candidates_examples():
    rs = pleating.cusp_candidates(S("1/2"))
    assert sorted(round(z.imag, 12) for z in rs.roots) == [-2, 2]
    assert all(abs(z.real) < 1e-12 for z in rs.roots)
    rs = pleating.cusp_candidates(S("0/1"))
    assert len(rs.roots) == 1 and abs(rs.roots[0] - 4) < 1e-12
    rs = pleating.cusp_candidates(S("1/1"))
    assert abs(rs.roots[0] + 4) < 1e-12


def test_cusp_candidates_vieta():
    for text in ("2/3", "3/8", "5/12", "7/10"):
        s = S(text)
        rs = pleating.cusp_candidates(s)
        shifted = farey_polynomial(s, "parabolic") + Poly([2])
        assert len(rs.roots) == s.q
        total = sum(rs.roots)
        expected = -shifted.coeffs[-2] / shifted.coeffs[-1]
        assert abs(total - expected) < 1e-8 * max(1.0, abs(expected))


def test_cusp_candidates_product_check():
    # constant 4, leading -1, odd degree: the root product is +4
    rs = pleating.cusp_candidates(S("2/3"))
    prod = 1
    for z in rs.roots:
        prod *= z
    assert abs(prod - 4) < 1e-10


def test_rootset_properties_up_to_40():
    for s in enumerate_farey(14) + [S("21/34"), S("13/40")]:
        rs = pleating.cusp_candidates(s)
        assert len(rs.roots) == s.q
        assert rs.converged
        assert max(rs.residuals) < 1e-8
        # real coefficients: closed under conjugation
        for z in rs.roots:
            assert any(abs(z.conjugate() - w) < 1e-8 for w in rs.roots)


def test_slice_cloud_small():
    cloud = pleating.slice_cloud(2)
    assert [rs.slope for rs in cloud] == [S("0/1"), S("1/1"), S("1/2")]
    flat = [z for rs in cloud for z in rs.roots]
    assert len(flat) == 4


def test_slice_cloud_elliptic_runs():
    cloud = pleating.slice_cloud(6, GeneratorParams(3, 4))
    for rs in cloud:
        assert len(rs.roots) == rs.slope.q
        assert max(rs.residuals, default=0.0) < 1e-8
        assert rs.ring == "numeric(3,4)"


def test_slice_cloud_elliptic_forward_checks():
    # Cone-angle coefficients are real, so roots close under conjugation.
    params = GeneratorParams(3, 4)
    for rs in pleating.slice_cloud(20, params):
        assert_root_set_properties(rs, farey_polynomial(rs.slope, params).coeffs)


@pytest.mark.parametrize(
    "specs",
    [
        [None, "parabolic", rings.Ring.parse("parabolic")],
        [GeneratorParams(3, 4), "numeric(3,4)", rings.Ring.parse("numeric(3,4)")],
    ],
    ids=["parabolic", "numeric(3,4)"],
)
def test_equal_ring_specs_give_the_same_cloud(specs, no_mirrors):
    texts = [serialize.roots_csv(pleating.slice_cloud(16, spec)) for spec in specs]
    assert texts[1:] == texts[:1] * 2


def test_cusp_candidates_rejects_the_generic_ring():
    with pytest.raises(ValueError, match="generic ring"):
        pleating.cusp_candidates(S("1/3"), "generic")
    # a path rejects it before its first convergent, as a bad spec
    for spec in ("generic", "numeric(1,2)"):
        with pytest.raises(ValueError):
            pleating.irrational_cusp_path(CFExpansion((0, 1), period=1), 0, spec)
    # nor has the formal vertex, in any ring
    with pytest.raises(FormalVertex, match="no root locus"):
        pleating.cusp_candidates(Slope(1, 0))


def test_numeric_inf_inf_is_not_the_parabolic_ring(no_mirrors):
    # At alpha = beta = 1 the numeric ring has the parabolic trace values
    # in complex coefficients.  Its sets come from the complex transfer
    # matrix, with no closure or mirror step, and still meet criterion 11:
    # q roots, converged, conjugate-closed to 1e-8, each root within 1e-12
    # relative of a distinct root of the parabolic set.
    cone = GeneratorParams(math.inf, math.inf)
    for rs in pleating.slice_cloud(40, cone):
        s, z = rs.slope, np.array(rs.roots)
        assert rs.ring == "numeric(inf,inf)"
        assert len(z) == s.q and rs.converged, s
        assert np.abs(z.conjugate()[:, None] - z[None, :]).min(axis=1).max() < 1e-8, s
        want = np.array(pleating.cusp_candidates(s).roots)
        dist = np.abs(z[:, None] - want[None, :])
        nearest = dist.argmin(axis=1)
        assert len(set(nearest.tolist())) == s.q, s
        assert np.all(dist.min(axis=1) <= 1e-12 * np.maximum(1.0, np.abs(want[nearest]))), s


def test_cusp_candidates_forward_accurate_up_to_40():
    # The exact Newton correction at every root is within 1e-12 relative:
    # ``_exact_evaluator`` rounds P and P' once each from exact ints.
    for s in enumerate_farey(40):
        z = np.array(pleating.cusp_candidates(s).roots)
        shifted = (farey_polynomial(s, "parabolic") + Poly([2])).coeffs
        p, dp = rings._exact_evaluator(shifted)(z)
        step = np.abs(p / dp)
        assert np.all(step <= 1e-12 * (1 + np.abs(z))), (s, step.max())


# Slopes where P overflows doubles far outside the roots: in the cone
# ring 3/128 and 47/128, where it overflows even on the circle of
# Fujiwara's root bound, and the parabolic 89/144, 98/99 and 127/128.
# The overflow probe on the circle of the largest root passes, and the
# sets meet criterion 11's checks.
@pytest.mark.parametrize(
    "s, params",
    [
        pytest.param(Slope(89, 144), None, id="89/144"),
        pytest.param(Slope(98, 99), None, id="98/99"),
        pytest.param(Slope(127, 128), None, id="127/128"),
        pytest.param(Slope(3, 128), GeneratorParams(3, 4), id="3/128-numeric(3,4)"),
        pytest.param(Slope(47, 128), GeneratorParams(3, 4), id="47/128-numeric(3,4)"),
    ],
)
def test_cusp_candidates_past_degree_guard(s, params):
    rs = pleating.cusp_candidates(s, params)
    assert_root_set_properties(rs, farey_polynomial(s, params or "parabolic").coeffs)


def test_irrational_cusp_path_golden():
    golden = CFExpansion((0, 1), period=1)
    sets = pleating.irrational_cusp_path(golden, 6)
    assert [rs.slope for rs in sets] == [
        S("1/1"), S("1/2"), S("2/3"), S("3/5"), S("5/8"), S("8/13"),
    ]
    assert abs(sets[0].roots[0] + 4) < 1e-12
    for rs in sets:
        assert max(rs.residuals) < 1e-8
    assert pleating.irrational_cusp_path(golden, 0) == []
    assert pleating.irrational_cusp_path(golden, -1) == []


def test_irrational_cusp_path_leaves_the_mirror_store_as_it_was(no_mirrors):
    # Convergent denominators increase strictly, so a path never asks for
    # both slopes of a mirror pair, and a partner set kept for it would
    # never be served.  Its sets are those of single requests, 2/3 served
    # from the store among them.
    pleating.cusp_candidates(S("1/3"))
    before = dict(pleating._MIRRORS)
    assert list(before) == [S("2/3")]
    sets = pleating.irrational_cusp_path(CFExpansion((0, 1), period=1), 12)
    assert pleating._MIRRORS == before
    assert sets[-1].slope == S("144/233")
    assert repr(sets) == repr([pleating.cusp_candidates(rs.slope) for rs in sets])


def test_irrational_cusp_path_sqrt2():
    sqrt2 = CFExpansion((0, 1, 2), period=1)
    sets = pleating.irrational_cusp_path(sqrt2, 4)
    assert [rs.slope for rs in sets] == [S("1/1"), S("2/3"), S("5/7"), S("12/17")]


def test_extremal_root_heuristic():
    rs = pleating.cusp_candidates(S("1/2"))
    assert pleating.extremal_root_heuristic(rs) == max(rs.roots, key=lambda z: z.imag)
    single = pleating.cusp_candidates(S("0/1"))
    assert abs(pleating.extremal_root_heuristic(single) - 4) < 1e-12


def test_cusp_candidates_does_not_warn_past_q_60():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pleating.cusp_candidates(Slope(55, 89))


def test_roots_of_integer_input_past_double_range_are_exact_and_do_not_warn():
    # The default evaluator takes 2**60 exactly: the 1 beside it is not lost.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found, residuals, converged = pleating.all_roots(Poly([2**60, 1, 1]).coeffs)
    assert found == pytest.approx([-0.5 - 2**30 * 1j, -0.5 + 2**30 * 1j], abs=1e-12)
    assert residuals == [0.0, 0.0] and converged


def test_roots_of_complex_input_past_2_53_are_exact_and_do_not_warn():
    # A complex coefficient beside an int past 2**53: the roots keep Vieta's
    # sum -1j and product 2**60.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found, _, _ = pleating.all_roots(Poly([2**60, 1j, 1]).coeffs)
    assert sum(found) == pytest.approx(-1j, abs=1e-12)
    assert abs(found[0] * found[1] - 2**60) < 1e-3


def test_exact_coefficients_past_double_range_do_not_warn():
    # 1/42 is the first slope with a coefficient past 2**53;
    # the roots come from the recursion's values, and the doubles only seed
    # and score the iteration, so nothing is lost.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pleating.cusp_candidates(Slope(1, 42))


def test_all_roots_restarts_particles_with_non_finite_ratios_apart(monkeypatch):
    # The first evaluation is NaN everywhere, so every particle restarts at
    # once; each gets its own angle, or the next Aberth sums divide by zero.
    calls = []

    def nan_first(coeffs):
        def evaluate(z):
            calls.append(len(z))
            if len(calls) == 1:
                return np.full_like(z, np.nan), np.ones_like(z)
            return z**3 - 8, 3 * z * z

        return evaluate

    # all_roots reads the evaluator by the name pleating imports from rings.
    monkeypatch.setattr(pleating, "_exact_evaluator", nan_first)
    rs, res, ok = pleating.all_roots([-8, 0, 0, 1])
    assert ok and max(res) < 1e-15 and len(calls) > 1
    want = [2 * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    assert all(min(abs(z - w) for z in rs) < 1e-12 for w in want)


def _exact_order_2_polynomial(s):
    """P + 2 at orders (2, 2) as exact ints: each generic term c u^i v^j
    at u = v = i is c i^(i + j) = c (-1)^((i + j) / 2), and i + j is even
    in every term."""
    coeffs = []
    for k, x in enumerate(recursion.farey_polynomial(s, "generic").coeffs):
        assert all((i + j) % 2 == 0 for i, j in x.terms), s
        coeffs.append(sum(-c if (i + j) // 2 % 2 else c for (i, j), c in x.terms.items()) + 2 * (k == 0))
    return Poly(coeffs)


def test_cusp_candidates_at_orders_2_2_are_the_exact_roots():
    # P + 2 = c (z - k)^(q mod 2) S(z)^2 with c = +-1 and k in {0, 4}, in
    # exact ints.  Each distinct root r of the set other than k comes
    # twice, and S changes sign across [r - 1e-12, r + 1e-12], evaluated in
    # Fractions.  The brackets are disjoint and deg S of them, so each
    # holds one simple root of S and there are no others: every root of
    # P + 2 is within 1e-12 of the set, with its multiplicity.  The sets
    # also meet criterion 11's checks.
    params = GeneratorParams(2, 2)
    width = Fraction(1, 10**12)
    for s in enumerate_farey(20):
        if s.q < 2:
            continue
        exact = _exact_order_2_polynomial(s)
        rs = pleating.cusp_candidates(s, params)
        assert_root_set_properties(rs, exact.coeffs)
        assert all(z.imag == 0 for z in rs.roots), s
        found = [z.real for z in rs.roots]
        assert exact.leading in (1, -1), s
        square, k = exact.scale(exact.leading), None
        if s.q % 2:
            k = 0.0 if exact.coeffs[0] == 0 else 4.0
            square = square.divmod_exact(Poly([-int(k), 1]))
        root = rings.poly_sqrt_exact(square)
        assert root is not None, s
        assert (k in found) == bool(s.q % 2), s
        double = sorted(set(found) - {k})
        assert all(found.count(r) == 2 for r in double), s
        assert len(double) == root.degree, s
        assert all(b - a > 2 * width for a, b in zip(double, double[1:])), s
        for r in map(Fraction, double):
            assert root.evaluate(r - width) * root.evaluate(r + width) < 0, (s, r)


def test_cusp_candidates_with_a_root_at_zero():
    # At orders (2, 2) the constant of P + 2 is exactly 0 for 1/1, 1/3, ...
    params = GeneratorParams(2, 2)
    assert pleating.cusp_candidates(S("1/1"), params).roots == [0j]
    rs = pleating.cusp_candidates(S("1/3"), params)
    assert 0j in rs.roots
    for rs in pleating.slice_cloud(5, params):
        assert_root_set_properties(rs, farey_polynomial(rs.slope, params).coeffs)


def test_orders_2_2_polynomials_are_lucas_polynomials():
    # At orders (2, 2), P_{p/q} = sigma 2 T_q((z - 2) / 2) with
    # sigma = (-1)^(number of inverse letters): the identity behind the
    # closed-form roots (``pleating._INVOLUTION_RING``).  2 T_n(y / 2) is
    # the Lucas polynomial L_n(y), L_0 = 2, L_1 = y and
    # L_(n+1) = y L_n - L_(n-1).  The complex-double coefficients stay below
    # 2**53 for q <= 40 and compare to 1e-12 relative; for q <= 20 the
    # exact ints compare exactly.
    params = GeneratorParams(2, 2)
    y = Poly([-2, 1])
    lucas = [Poly([2]), y]
    while len(lucas) <= 40:
        lucas.append(y * lucas[-1] - lucas[-2])
    for s in enumerate_farey(40):
        sigma = (-1) ** farey_exponents(s).count(-1)
        want = [sigma * c for c in lucas[s.q].coeffs]
        got = np.array(farey_polynomial(s, params).coeffs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), s
        if s.q <= 20:
            want[0] += 2
            exact = _exact_order_2_polynomial(s).coeffs
            assert exact == want and all(type(c) is int for c in exact), s


def test_no_cusp_set_runs_the_aberth_loop(monkeypatch):
    # Every ring's cusp candidates come from the transfer matrix or, at
    # orders (2, 2), from the closed form.
    def aberth(coeffs):
        raise AssertionError("cusp_candidates ran the Aberth loop")

    monkeypatch.setattr(pleating, "all_roots", aberth)
    inf = math.inf
    for ab in [None, (2, 2), (3, 4), (2, 3), (3, inf), (inf, 3)]:
        params = ab and GeneratorParams(*ab)
        assert len(pleating.slice_cloud(12, params)) == len(enumerate_farey(12)), ab
