"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test computes its verdict first, prints "[criterion N] ... PASS/FAIL"
(visible with pytest -s and in captured output on failure), then asserts.
Stated time budgets are asserted where the criterion names one.
"""

import random
import time

import pytest

from fareyslice import (
    CFExpansion,
    Laurent2,
    Poly,
    Slope,
    enumerate_farey,
    fan_walk,
    farey_polynomial,
    farey_word,
    homogeneous_farey_polynomial,
    mediant,
    ominus,
    parents,
    recursion_constants,
)
from fareyslice import benchmark, conjecture, frf, oracle, pleating, recursion, serialize
from fareyslice.recursion import FareyPolynomialEngine

from golden_data import (
    FIBONACCI_POLYS,
    FIBONACCI_SQRTS,
    GENERIC_POLYS,
    HOMOGENEOUS_POLYS,
    WORDS,
)


def S(text):
    return Slope.parse(text)


GOLDEN_CF = CFExpansion((0, 1), period=1)
SQRT2_CF = CFExpansion((0, 1, 2), period=1)


def _verdict(number, label, ok, elapsed=None, budget=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {number:2d}] {label}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} failed"
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_words_golden():
    t0 = time.perf_counter()
    ok = len(WORDS) == 47
    for text, expected in WORDS.items():
        ok = ok and str(farey_word(S(text))) == expected
    _verdict(1, "all published Farey words (q <= 12) byte-exact",
             ok, time.perf_counter() - t0, budget=1.0)


def test_criterion_02_generic_polynomials_golden():
    t0 = time.perf_counter()
    ok = True
    for text, entry in GENERIC_POLYS.items():
        degree = max(entry)
        expected = Poly([Laurent2(entry.get(k, {})) for k in range(degree + 1)])
        ok = ok and farey_polynomial(S(text), "generic") == expected
    _verdict(2, "generic-ring polynomials (q <= 4) exact",
             ok, time.perf_counter() - t0, budget=1.0)


def test_criterion_03_fibonacci_polynomials_golden():
    t0 = time.perf_counter()
    walk = dict(fan_walk(GOLDEN_CF, 12, "parabolic"))
    ok = True
    for text, coeffs in FIBONACCI_POLYS.items():
        s = S(text)
        poly = walk[s] if s in walk else farey_polynomial(s, "parabolic")
        ok = ok and poly.coeffs == coeffs
    ok = ok and walk[S("21/34")].coeffs[22] == 260686
    ok = ok and walk[S("34/55")].coeffs[35] == -1589182962
    _verdict(3, "Fibonacci-geodesic polynomials through 34/55 exact",
             ok, time.perf_counter() - t0, budget=5.0)


def test_criterion_04_homogeneous_polynomials_golden():
    t0 = time.perf_counter()
    ok = len(HOMOGENEOUS_POLYS) == 17
    for text, coeffs in HOMOGENEOUS_POLYS.items():
        ok = ok and homogeneous_farey_polynomial(S(text)).coeffs == coeffs
    _verdict(4, "all 17 homogeneous rows exact",
             ok, time.perf_counter() - t0, budget=1.0)


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    engine = FareyPolynomialEngine("generic")
    ok = True
    for s in enumerate_farey(20):
        ok = ok and engine.polynomial(s) == oracle.farey_polynomial(s, "generic")
    _verdict(5, "recursion == matrix oracle, all q <= 20, generic ring",
             ok, time.perf_counter() - t0, budget=120.0)


def test_criterion_06_triangle_identities():
    t0 = time.perf_counter()
    eight = Poly([8])
    ok = True
    pairs64 = [(S("0/1"), S("1/0"))]
    pairs64 += [parents(s) for s in enumerate_farey(64) if s.q >= 2]
    for a, b in pairs64:
        if a.q + b.q > 64:
            continue
        total = (
            farey_polynomial(a, "parabolic") * farey_polynomial(b, "parabolic")
            + farey_polynomial(mediant(a, b), "parabolic")
            + farey_polynomial(ominus(a, b), "parabolic")
        )
        ok = ok and total == eight
    c_even, c_odd = recursion_constants("generic")
    pairs16 = [(a, b) for a, b in pairs64 if a.q + b.q <= 16]
    for a, b in pairs16:
        total = (
            farey_polynomial(a, "generic") * farey_polynomial(b, "generic")
            + farey_polynomial(mediant(a, b), "generic")
            + farey_polynomial(ominus(a, b), "generic")
        )
        want = c_even if (a.q + b.q) % 2 == 0 else c_odd
        ok = ok and total == want
    for a, b in pairs16:
        if a.is_infinite or b.is_infinite:
            continue
        prod_ok = oracle.trace_product(a, b) + farey_polynomial(
            mediant(a, b), "generic"
        ) == oracle.product_constant((a.q + b.q) % 2 == 0)
        quot_ok = oracle.trace_quotient(a, b) + farey_polynomial(
            ominus(a, b), "generic"
        ) == oracle.quotient_constant((a.q - b.q) % 2 == 0)
        ok = ok and prod_ok and quot_ok
    _verdict(6, "triangle sums (parabolic 64 / generic 16) and both trace "
                "identities exact", ok, time.perf_counter() - t0)


def test_criterion_07_fan_value_sequences():
    t0 = time.perf_counter()
    vals = {z: [homogeneous_farey_polynomial(S(f"1/{q}")).evaluate(z)
                for q in range(1, 31)] for z in (1, 2, 3, 4, 5)}
    seq1 = vals[1]
    ok = all(seq1[i] == (3, -5, 2)[i % 3] for i in range(30))
    seq2 = vals[2]
    ok = ok and all(seq2[i] == (4, -2, -4, 2)[i % 4] for i in range(30))
    seq3 = vals[3]
    ok = ok and all(seq3[i + 6] == seq3[i] for i in range(24))
    ok = ok and frf.detect_cycle(3, 8) == 6
    seq4 = vals[4]
    ok = ok and all(seq4[i + 1] - seq4[i] == 4 for i in range(29))
    seq5 = vals[5]
    ok = ok and seq5[0] == 7 and seq5[1] == 19
    ok = ok and all(
        seq5[i] == 3 * seq5[i - 1] - seq5[i - 2] for i in range(2, 30)
    )
    _verdict(7, "fan value sequences at z = 1..5 (periods 3/4/6, step 4, "
                "three-term relation), exact integers",
             ok, time.perf_counter() - t0)


def test_criterion_08_closed_forms():
    t0 = time.perf_counter()
    rng = random.Random(20240809)
    ok = True
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(z) < 1e-3 or abs(z - 4) < 1e-3:
            continue
        q = rng.randrange(0, 41)
        closed = frf.closed_form_left(z, q)
        direct = frf.left_sequence(z, q)
        ok = ok and abs(closed - direct) <= 1e-9 * max(1.0, abs(direct))
        checked += 1
    fans = [(S("1/1"), S("2/3")), (S("1/2"), S("2/5")), (S("1/3"), S("3/8"))]
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b0, b1 = fans[rng.randrange(len(fans))]
        n = rng.randrange(0, 41)
        alpha = ominus(b1, b0)
        try:
            got = frf.closed_form_triangle(b0, b1, n, z)
        except frf.DegenerateEigenvalues:
            continue
        # stable reference: run the fan recurrence pointwise at z (the fan
        # polynomials reach degree ~200 here, far beyond what expanded
        # coefficients can be evaluated with in doubles)
        a_val = complex(homogeneous_farey_polynomial(alpha).evaluate(z))
        f_prev = complex(homogeneous_farey_polynomial(b0).evaluate(z))
        f_cur = complex(homogeneous_farey_polynomial(b1).evaluate(z))
        want = f_prev
        if n:
            want = f_cur
            for _ in range(n - 1):
                f_prev, f_cur = f_cur, -a_val * f_cur - f_prev
                want = f_cur
        ok = ok and abs(got - want) <= 1e-9 * max(1.0, abs(want))
        checked += 1
    _verdict(8, "closed forms match recursion to 1e-9 at 100 random points, "
                "q/n <= 40", ok, time.perf_counter() - t0)


def test_criterion_09_square_root_table():
    t0 = time.perf_counter()
    got = conjecture.table_of_squares(20)
    ok = got == FIBONACCI_SQRTS and len(str(got[-1])) == 92
    _verdict(9, "alternating-sum square roots exact for q <= 20 "
                "(incl. the 92-digit value)", ok, time.perf_counter() - t0,
             budget=30.0)


def test_criterion_10_square_decomposition_scan():
    t0 = time.perf_counter()
    failures = []
    for s in enumerate_farey(40):
        d = conjecture.decompose_square(s)
        if d is None or d.rebuild() != (
            farey_polynomial(s, "parabolic") - Poly([2])
        ):
            failures.append(s)
    ok = not failures
    _verdict(10, "square decomposition succeeds for every slope q <= 40",
             ok, time.perf_counter() - t0)


def test_criterion_11_root_sets():
    t0 = time.perf_counter()
    half = pleating.cusp_candidates(S("1/2"))
    ok = sorted(round(z.imag, 12) for z in half.roots) == [-2, 2]
    ok = ok and all(abs(z.real) < 1e-12 for z in half.roots)
    zero = pleating.cusp_candidates(S("0/1"))
    ok = ok and abs(zero.roots[0] - 4) < 1e-12
    for s in enumerate_farey(40):
        rs = pleating.cusp_candidates(s)
        shifted = farey_polynomial(s, "parabolic") + Poly([2])
        want = -shifted.coeffs[-2] / shifted.coeffs[-1] if s.q >= 2 else None
        ok = ok and len(rs.roots) == s.q
        ok = ok and max(rs.residuals) < 1e-8
        ok = ok and rs.converged
        ok = ok and all(
            any(abs(z.conjugate() - w) < 1e-8 for w in rs.roots) for z in rs.roots
        )
        if want is not None:
            got = sum(rs.roots)
            ok = ok and abs(got - want) <= 1e-8 * max(1.0, abs(want))
    _verdict(11, "every root set: count, residual < 1e-8, conjugation "
                 "closure, Vieta sums (all q <= 40)", ok,
             time.perf_counter() - t0)


def test_criterion_12_cubic_step_fixed_points():
    t0 = time.perf_counter()
    report = recursion.dynsys_check()
    ok = report.all_pass
    eig_checks = [okk for name, okk, _ in report.checks if "eigenpair" in name]
    ok = ok and len(eig_checks) == 6
    _verdict(12, "both fixed points, six eigenpairs < 1e-12, exact "
                 "characteristic factorisations, determinants -1",
             ok, time.perf_counter() - t0)


def test_criterion_13_cloud_and_paths():
    t0 = time.perf_counter()
    cloud = pleating.slice_cloud(30)
    ok = len(cloud) == len(enumerate_farey(30))
    for rs in cloud:
        ok = ok and len(rs.roots) == rs.slope.q
        ok = ok and max(rs.residuals) < 1e-8 and rs.converged
        ok = ok and all(
            any(abs(z.conjugate() - w) < 1e-8 for w in rs.roots) for z in rs.roots
        )
    paths = pleating.irrational_cusp_path(GOLDEN_CF, 8)
    paths += pleating.irrational_cusp_path(SQRT2_CF, 6)
    for rs in paths:
        ok = ok and len(rs.roots) == rs.slope.q and max(rs.residuals) < 1e-8
    svg_cloud = serialize.scatter_svg(
        [(z.real, z.imag) for rs in cloud for z in rs.roots]
    )
    svg_path = serialize.scatter_svg(
        [(z.real, z.imag) for rs in paths for z in rs.roots]
    )
    ok = ok and svg_cloud.count("<circle") > 100 and svg_path.count("<circle") > 10
    _verdict(13, "cloud (q <= 30) and cusp paths pass all root properties; "
                 "SVGs non-empty", ok, time.perf_counter() - t0, budget=120.0)


def test_criterion_14_benchmark():
    t0 = time.perf_counter()
    report = benchmark.run_benchmark("fibonacci", 15)
    ok = report.target == S("377/610")
    ok = ok and report.oracle_mults >= 10 * report.recursion_mults
    ok = ok and report.recursion_seconds > 0 and report.oracle_seconds > 0
    _verdict(
        14,
        f"Fibonacci size 15 (q=610): {report.recursion_mults} vs "
        f"{report.oracle_mults} multiplications "
        f"({report.mult_ratio:.0f}x counted), measured speedup "
        f"{report.speedup:.1f}x",
        ok,
        time.perf_counter() - t0,
    )
