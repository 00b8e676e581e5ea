import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fareyslice import (
    CFExpansion,
    GeneratorParams,
    Laurent2,
    Poly,
    Slope,
    cubic_step,
    cubic_step_homogeneous,
    enumerate_farey,
    fan_walk,
    farey_polynomial,
    homogeneous_farey_polynomial,
    mediant,
    ominus,
    parents,
    recursion_constants,
    reduced_farey_polynomial,
)
from fareyslice import frf, oracle, recursion
from fareyslice.recursion import FareyPolynomialEngine
from fareyslice.rings import Ring, poly_mul_count
from fareyslice.slopes import INFINITY, ONE, ZERO

from golden_data import FIBONACCI_POLYS, GENERIC_POLYS, HOMOGENEOUS_POLYS


def S(text):
    return Slope.parse(text)


GOLDEN = CFExpansion((0, 1), period=1)


def _poly_from_table(entry):
    degree = max(entry)
    return Poly([Laurent2(entry.get(k, {})) for k in range(degree + 1)])


def test_generic_polynomials_golden_small_q():
    for text, entry in GENERIC_POLYS.items():
        expected = _poly_from_table(entry)
        assert farey_polynomial(S(text), "generic") == expected


def test_parabolic_small_examples():
    assert farey_polynomial(S("1/2"), "parabolic").coeffs == [2, 0, 1]
    assert farey_polynomial(S("2/3"), "parabolic").coeffs == [2, -1, -2, -1]


def test_fibonacci_polynomials_golden():
    walk = dict(fan_walk(GOLDEN, 12, "parabolic"))
    for text, coeffs in FIBONACCI_POLYS.items():
        s = S(text)
        poly = walk[s] if s in walk else farey_polynomial(s, "parabolic")
        assert poly.coeffs == coeffs


def test_homogeneous_polynomials_golden():
    for text, coeffs in HOMOGENEOUS_POLYS.items():
        assert homogeneous_farey_polynomial(S(text)).coeffs == coeffs


def test_reduced_polynomials():
    assert reduced_farey_polynomial(S("0/1")).coeffs == [0, -1]
    assert reduced_farey_polynomial(S("1/1")).coeffs == [0, 1]
    assert reduced_farey_polynomial(S("1/3")).coeffs == [0, 1, -2, 1]


def test_oracle_equivalence_generic_small():
    for s in enumerate_farey(10):
        assert farey_polynomial(s, "generic") == oracle.farey_polynomial(s, "generic")


def test_parabolic_triangle_identity_up_to_64():
    eight = Poly([8])
    pairs = [(S("0/1"), S("1/0"))]  # (1/1, 1/0) has mediant 2/1, out of range
    pairs += [parents(s) for s in enumerate_farey(64) if s.q >= 2]
    for a, b in pairs:
        if a.q + b.q > 64:
            continue
        total = (
            farey_polynomial(a, "parabolic") * farey_polynomial(b, "parabolic")
            + farey_polynomial(mediant(a, b), "parabolic")
            + farey_polynomial(ominus(a, b), "parabolic")
        )
        assert total == eight


def test_generic_triangle_identity_up_to_16():
    c_even, c_odd = recursion_constants("generic")
    pairs = [(S("0/1"), S("1/0"))]
    pairs += [parents(s) for s in enumerate_farey(16) if s.q >= 2]
    for a, b in pairs:
        if a.q + b.q > 16:
            continue
        total = (
            farey_polynomial(a, "generic") * farey_polynomial(b, "generic")
            + farey_polynomial(mediant(a, b), "generic")
            + farey_polynomial(ominus(a, b), "generic")
        )
        assert total == (c_even if (a.q + b.q) % 2 == 0 else c_odd)


def test_degree_and_constant_term_structure():
    for s in enumerate_farey(40):
        p = farey_polynomial(s, "parabolic")
        assert p.degree == s.q
        assert p.coeffs[0] == 2
    assert farey_polynomial(S("1/0"), "parabolic").coeffs == [2]


def _engine(kind):
    """A new engine: a ring's, or the homogeneous family's."""
    if kind == "homogeneous":
        return recursion._homogeneous_engine()
    return FareyPolynomialEngine(kind)


def test_parabolic_mirror_slopes_negate_z_up_to_60():
    # p/q -> (q - p)/q swaps the seeds 2 - z and 2 + z and fixes 1/0 and
    # the constant 8, or the homogeneous family's 0, so P_{(q-p)/q}(z) =
    # P_{p/q}(-z) coefficient by coefficient; the engines and
    # pleating.cusp_candidates rely on it.  One engine is asked only for
    # slopes p/q <= 1/2 and another only for those >= 1/2: neither ever
    # holds a slope's mirror, so both compute every polynomial by products.
    for kind in ("parabolic", "homogeneous"):
        lower, upper = _engine(kind), _engine(kind)
        before = poly_mul_count()
        for s in enumerate_farey(60):
            if 2 * s.p <= s.q:
                mirror = upper.polynomial(Slope(s.q - s.p, s.q)).coeffs
                coeffs = lower.polynomial(s).coeffs
                assert mirror == [(-1) ** k * c for k, c in enumerate(coeffs)], (kind, s)
        assert poly_mul_count() - before == len(lower._cache) + len(upper._cache) - 6, kind


def _reflected(terms, k=0):
    """A generic coefficient's term dict at (z, v) -> (-z, 1/v), as the
    coefficient of z^k."""
    return {(i, -j): (-1) ** k * c for (i, j), c in terms.items()}


def test_mirror_rule_base_case():
    # The induction start of the mirror rule, in the seeds' and triangle
    # sums' own term dicts: (z, v) -> (-z, 1/v) swaps the seeds at 0/1 and
    # 1/1, fixes the one at 1/0, and fixes both triangle sums.
    seeds = {k: [c.terms for c in p.coeffs] for k, p in recursion._GENERIC_SEEDS.items()}
    for k, mirror in (((0, 1), (1, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 0))):
        assert [_reflected(c, n) for n, c in enumerate(seeds[k])] == seeds[mirror], k
    for total in (recursion._EVEN_SUM, recursion._ODD_SUM):
        assert _reflected(total.terms) == total.terms


@pytest.mark.parametrize("ring, q_max", [("generic", 12), ("parabolic", 40), ("homogeneous", 40)])
def test_request_order_changes_nothing(ring, q_max):
    # In (q, p) order each upper slope is the mirror image of a cached
    # lower one; in reverse order each lower slope is; a fresh engine per
    # slope holds no mirror and multiplies throughout.
    slopes = enumerate_farey(q_max)
    forward, backward = _engine(ring), _engine(ring)
    want = [forward.polynomial(s) for s in slopes]
    assert [backward.polynomial(s) for s in reversed(slopes)] == want[::-1]
    assert [_engine(ring).polynomial(s) for s in slopes] == want


@pytest.mark.parametrize(
    "ring, muls",
    [("generic", 51), (GeneratorParams(3, 4), 101), ("homogeneous", 51)],
    ids=["generic", "numeric(3,4)", "homogeneous"],
)
def test_mirror_images_halve_the_products_in_the_exact_rings(ring, muls):
    # 101 slopes lie strictly between 0/1 and 1/1 with q <= 18: 50 mirror
    # pairs and 1/2.  An exact engine multiplies once per pair and for
    # 1/2; a numeric one once per slope.
    engine = _engine(ring)
    before = poly_mul_count()
    for s in enumerate_farey(18):
        engine.polynomial(s)
    assert poly_mul_count() - before == muls
    assert len(engine._cache) - 3 == 101


def _moved_keys(poly, f):
    """The term dicts of a generic polynomial, each key (i, j) sent to
    f(i, j)."""
    return [{f(i, j): v for (i, j), v in c.terms.items()} for c in poly.coeffs]


# Two exact symmetries of the generic ring, checked on each route by
# itself: alpha <-> beta, (i, j) -> (j, i), and (alpha, beta) ->
# (1/alpha, 1/beta), (i, j) -> (-i, -j), fix every polynomial with
# q <= 18, while alpha -> 1/alpha alone, (i, j) -> (-i, j), moves every
# one of them, so the check can fail.
@pytest.mark.parametrize("route", [recursion, oracle], ids=["recursion", "oracle"])
@settings(max_examples=60, deadline=None)
@given(s=st.sampled_from(enumerate_farey(18)))
def test_generic_polynomials_are_symmetric(route, s):
    poly = route.farey_polynomial(s, "generic")
    terms = [c.terms for c in poly.coeffs]
    assert _moved_keys(poly, lambda i, j: (j, i)) == terms
    assert _moved_keys(poly, lambda i, j: (-i, -j)) == terms
    assert _moved_keys(poly, lambda i, j: (-i, j)) != terms


def test_recursion_constants_parabolic():
    c_even, c_odd = recursion_constants("parabolic")
    assert c_even == Poly([8]) and c_odd == Poly([8])


def test_numeric_engine_matches_specialised_generic():
    for params in (
        GeneratorParams(3, 3),
        GeneratorParams(3, 4),
        GeneratorParams(4, 4),
        GeneratorParams(3, math.inf),
    ):
        # The seeds are the generic ones specialised, exactly.
        for s in (ZERO, ONE, INFINITY):
            expected = Ring.parse(params).specialize(farey_polynomial(s, "generic"))
            assert farey_polynomial(s, params) == expected
        for s in enumerate_farey(12):
            numeric = farey_polynomial(s, params)
            expected = Ring.parse(params).specialize(farey_polynomial(s, "generic"))
            assert numeric.degree == expected.degree
            for cn, ce in zip(numeric.coeffs, expected.coeffs):
                assert abs(cn - ce) <= 1e-9 * max(1.0, abs(ce))


def test_fan_walk_members():
    walk = fan_walk(GOLDEN, 8, "parabolic")
    slopes = [s for s, _ in walk]
    assert slopes[:5] == [S("1/1"), S("1/2"), S("2/3"), S("3/5"), S("5/8")]
    for s, poly in walk:
        assert poly == farey_polynomial(s, "parabolic")
    short = fan_walk(CFExpansion((0, 2)), 10, "parabolic")
    assert short[-1][0] == S("1/2")


def test_cubic_step_fixed_points():
    assert cubic_step(2, 2, 2) == 2
    assert cubic_step(-4, -4, -4) == -4


def test_cubic_step_homogeneous_seeds():
    y4 = cubic_step_homogeneous(Poly([0, -1]), Poly([0, 1]), Poly([0, 0, 1]))
    assert y4 == reduced_farey_polynomial(S("2/3"))


def test_cubic_step_reproduces_fan_values():
    # Fibonacci-type chain rooted at (1/3, 2/5).
    chain = [S("1/3"), S("2/5")]
    for _ in range(5):
        chain.append(mediant(chain[-1], chain[-2]))
    x1, x2 = (farey_polynomial(s, "parabolic") for s in chain[:2])
    x0 = farey_polynomial(ominus(*chain[:2]), "parabolic")
    window = [x0, x1, x2]
    for nxt in chain[2:]:
        value = cubic_step(*window)
        assert value == farey_polynomial(nxt, "parabolic")
        window = [window[1], window[2], value]


def _stern_brocot_path(s):
    """The mediants from 0/1 and 1/1 down to ``s``, by parents alone: the
    step before a mediant is its parent with the larger denominator."""
    path = []
    while s.q > 1:
        path.append(s)
        s = max(parents(s), key=lambda u: u.q)
    return path


def test_descend_walks_the_stern_brocot_path_by_triangles():
    # Checked against the triangle definition in slopes: each new slope t
    # gets (a, b) = parents(t) and d = a (-) b, all three already cached,
    # and a seeds-only cache ends up with the seeds plus the path.
    seeds = recursion._seeds(Ring.parse("parabolic"))
    for s in enumerate_farey(30) + [S("1/60"), S("59/60")]:
        cache = dict(seeds)
        calls = []

        def step(*triangle):
            assert all(u in cache for u in triangle[1:]), (s, triangle)
            t, a, b, d = (Slope(*u) for u in triangle)
            assert (a, b) == parents(t) and d == ominus(a, b), (s, t)
            calls.append(t)

        recursion.descend(cache, s, step)
        path = _stern_brocot_path(s)
        assert sorted(calls) == sorted(path), s
        assert set(cache) == set(seeds) | {(u.p, u.q) for u in path}, s


def _fresh_descent(kind):
    """(cache, compute) for one user of the descent kernel, seeds only."""
    if kind == "frf":
        spec = frf.homogeneous_spec()  # d1 = 1
        return spec._cache, lambda s: frf.frf_eval(spec, s)
    engine = _engine(kind)
    return engine._cache, engine.polynomial


@pytest.mark.parametrize(
    "kind",
    ["parabolic", "generic", GeneratorParams(3, 4), "homogeneous", "frf"],
    ids=["parabolic", "generic", "numeric(3,4)", "homogeneous", "frf"],
)
def test_fan_walk_multiplication_count(kind):
    cache, compute = _fresh_descent(kind)
    before, muls = len(cache), poly_mul_count()
    compute(S("13/21"))
    # One multiplication per uncached slope on the Fibonacci chain.
    assert poly_mul_count() - muls == len(cache) - before == 6


@pytest.mark.parametrize("ring", ["parabolic", GeneratorParams(3, 4)], ids=["parabolic", "numeric(3,4)"])
def test_evaluate_matches_polynomial_without_products(ring):
    engine = recursion.get_engine(ring)
    rng = np.random.default_rng(7)
    z = rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12)
    # 1/60, 59/60 and 21/55 walk 59, 59 and 8 steps of the Stern-Brocot
    # path; no slope with q <= 16 takes more than 15.
    for s in enumerate_farey(16) + [INFINITY, S("1/60"), S("59/60"), S("21/55")]:
        coeffs = [complex(c) for c in engine.polynomial(s).coeffs]
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
        before = poly_mul_count()
        value, slope_value = engine.evaluate(s, z)
        assert poly_mul_count() == before
        for got, cs in ((value, coeffs), (slope_value, deriv)):
            want = np.polyval(cs[::-1], z) if cs else np.zeros_like(z)
            scale = np.polyval(np.abs(cs[::-1]), np.abs(z)) if cs else np.ones(len(z))
            assert np.all(np.abs(got - want) <= 1e-12 * scale), s


def test_evaluate_rejects_the_generic_ring():
    with pytest.raises(ValueError, match="scalar"):
        recursion.get_engine("generic").evaluate(Slope(1, 2), np.array([1j]))


def test_evaluate_runs_in_constant_memory():
    # The walk to 1/1000 adds 999 mediants; a step drops the third vertex,
    # so the peak stays near four pairs of arrays (0.08 MB measured), where
    # keeping the path's values would take 16.4 MB.
    z = np.linspace(0.0, 4.0, 500) + 0j
    tracemalloc.start()
    try:
        recursion.get_engine("parabolic").evaluate(Slope(1, 1000), z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_dynsys_report():
    report = recursion.dynsys_check()
    assert report.all_pass, str(report)
    names = [name for name, _, _ in report.checks]
    assert any("fixed point (2,2,2)" in n for n in names)
    assert any("fixed point (-4,-4,-4)" in n for n in names)
    assert sum("eigenpair" in n for n in names) == 6
    assert sum("determinant" in n for n in names) == 2
    assert sum("char poly" in n for n in names) == 2


def _counted_mirrors(monkeypatch):
    """The list that every later ``recursion._mirrored`` call appends to."""
    mirrors = []
    mirrored = recursion._mirrored

    def counted(poly):
        mirrors.append(poly)
        return mirrored(poly)

    monkeypatch.setattr(recursion, "_mirrored", counted)
    return mirrors


def _race(slopes, compute):
    """[(s, compute(s)) for every slope] from each of eight threads on
    fewer cores, released together and switching every few microseconds,
    each starting at its own offset into ``slopes``."""
    start = threading.Barrier(8)

    def work(k):
        start.wait(timeout=60)
        return [(s, compute(s)) for s in slopes[k * 5:] + slopes[:k * 5]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, k) for k in range(8)]
            return [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_engines_agree_with_oracle(monkeypatch):
    # The threads race to create the one generic engine and to fill its
    # cache with overlapping slopes.  Every slope must be computed exactly
    # once: one multiplication or one mirror image per cached slope, as in
    # one thread.
    monkeypatch.setattr(recursion, "_ENGINES", {})
    mirrors = _counted_mirrors(monkeypatch)
    slopes = enumerate_farey(10)
    want = {s: oracle.farey_polynomial(s, "generic") for s in slopes}
    before = poly_mul_count()
    results = _race(slopes, lambda s: (recursion.get_engine("generic"),
                                       farey_polynomial(s, "generic")))
    engine = recursion.get_engine("generic")
    assert poly_mul_count() - before + len(mirrors) == len(engine.cached_slopes()) - 3
    assert mirrors
    for rows in results:
        assert len(rows) == len(slopes)
        for s, (got_engine, poly) in rows:
            assert got_engine is engine
            assert poly == want[s], s


def test_concurrent_homogeneous_family_agrees_with_frf(monkeypatch):
    # The same race on the homogeneous family's one engine, checked
    # against the FRF step, which multiplies at every slope.
    engine = recursion._homogeneous_engine()
    monkeypatch.setattr(recursion, "_HOMOGENEOUS_ENGINE", engine)
    mirrors = _counted_mirrors(monkeypatch)
    slopes = enumerate_farey(20)
    spec = frf.homogeneous_spec()
    want = {s: frf.frf_eval(spec, s) for s in slopes}
    before = poly_mul_count()
    results = _race(slopes, homogeneous_farey_polynomial)
    assert poly_mul_count() - before + len(mirrors) == len(engine.cached_slopes()) - 3
    assert mirrors
    for rows in results:
        assert len(rows) == len(slopes)
        for s, poly in rows:
            assert poly == want[s], s


def test_cached_slopes_reads_the_cache_under_the_lock():
    # While another thread holds the lock (as ``polynomial`` does while it
    # inserts), ``cached_slopes`` waits instead of iterating a dict that
    # may change size; once the lock is free it returns every slope.
    engine = FareyPolynomialEngine("parabolic")
    engine.polynomial(S("3/7"))
    want = sorted(engine._cache)
    got = []
    with engine._lock:
        worker = threading.Thread(target=lambda: got.append(engine.cached_slopes()))
        worker.start()
        worker.join(0.2)
        assert worker.is_alive() and not got
    worker.join(60)
    assert not worker.is_alive()
    assert sorted((s.p, s.q) for s in got[0]) == want
