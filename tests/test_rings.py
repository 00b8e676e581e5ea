import gc
import importlib.util
import math
import random
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from fareyslice import (
    GeneratorParams,
    Laurent2,
    Poly,
    Slope,
    eval_complex,
    farey_polynomial,
    is_perfect_square,
    poly_sqrt_exact,
    specialize_numeric,
    specialize_parabolic,
)
from fareyslice import oracle
from fareyslice.errors import ZeroDivisor
from fareyslice.recursion import get_engine
from fareyslice.rings import Ring, exact_div
from fareyslice.words import Letter


def test_laurent_basic():
    a = Laurent2({(1, -1): 1, (-1, 1): 1})
    assert a + 0 == a
    assert a - a == Laurent2()
    assert not Laurent2()
    assert Laurent2.const(3) == 3
    assert (a * 1) == a


def test_poly_basic():
    p = Poly([2, 0, 1])
    q = Poly([2, 1])
    assert (p + q).coeffs == [4, 1, 1]
    assert (p - p).is_zero
    assert (Poly([2, -1]) * Poly([2, 1])).coeffs == [4, 0, -1]
    assert (Poly([2, 0, 1]) * Poly([2, 1])).coeffs == [4, 2, 2, 1]
    assert p.evaluate(2j) == pytest.approx(-2)
    assert Poly([2, -1]).evaluate(4) == -2
    assert Poly([-6, 0, 1]).evaluate(5) == 19


ints = st.integers(-50, 50)
small_polys = st.lists(ints, min_size=0, max_size=6).map(Poly)


@settings(max_examples=150)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


laurent_keys = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
# General values, one-term values and constants (zero and +-1 among them),
# so that the kernel's monomial and constant fast paths are drawn often.
laurent_terms = st.one_of(
    st.dictionaries(laurent_keys, st.integers(-9, 9), max_size=4),
    st.builds(lambda k, c: {k: c}, laurent_keys, st.integers(-9, 9)),
    st.integers(-2, 2).map(lambda c: {(0, 0): c}),
)


@settings(max_examples=100)
@given(laurent_terms, laurent_terms, laurent_terms)
def test_laurent_ring_axioms(ta, tb, tc):
    a, b, c = Laurent2(ta), Laurent2(tb), Laurent2(tc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def reference_mul(a: dict, b: dict) -> dict:
    """The general double loop that Laurent2 products used to run."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            w = out.get(k, 0) + c1 * c2
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def reference_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def reference_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def terms_of(x) -> dict:
    return x.terms if isinstance(x, Laurent2) else ({(0, 0): x} if x else {})


laurents = laurent_terms.map(Laurent2)
operands = st.one_of(laurents, st.integers(-3, 3))
# Few keys and coefficients +-1: products whose terms cancel at some key.
dense_laurents = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(-1, 1), min_size=2
).map(Laurent2)
# Arbitrary pairs, plus pairs that cancel fully under addition.
kernel_pairs = st.one_of(
    st.tuples(laurents, operands),
    st.tuples(dense_laurents, dense_laurents),
    laurents.map(lambda x: (x, Laurent2(reference_neg(x.terms)))),
    st.integers(-3, 3).map(lambda c: (Laurent2.const(c), -c)),
)


@settings(max_examples=400)
@given(kernel_pairs)
@example((Laurent2({(0, 0): 1, (1, 0): 1}), Laurent2({(0, 0): 1, (1, 0): -1})))
def test_laurent_kernel_matches_the_double_loop(pair):
    x, y = pair
    a, b = dict(terms_of(x)), dict(terms_of(y))
    cases = [
        (x * y, reference_mul(a, b)),
        (y * x, reference_mul(b, a)),
        (x + y, reference_add(a, b)),
        (y + x, reference_add(b, a)),
        (x - y, reference_add(a, reference_neg(b))),
        (y - x, reference_add(b, reference_neg(a))),
        (-x, reference_neg(a)),
    ]
    for got, want in cases:
        assert isinstance(got, Laurent2)
        assert got.terms == want
        assert all(got.terms.values()), "a zero coefficient is stored"
    # Fast paths may share an operand's dict; none may write to it.
    assert terms_of(x) == a and terms_of(y) == b


complex_polys = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda t: complex(*t)),
    max_size=5,
).map(Poly)
laurent_polys = st.lists(laurent_terms.map(Laurent2), max_size=4).map(Poly)


@settings(max_examples=60)
@given(complex_polys, complex_polys, complex_polys)
def test_complex_poly_ring_axioms(a, b, c):
    # Gaussian-integer coefficients keep the arithmetic exact.
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40)
@given(laurent_polys, laurent_polys, laurent_polys)
def test_laurent_poly_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_specialize_parabolic_examples():
    assert specialize_parabolic(farey_polynomial(Slope(1, 2), "generic")).coeffs == [2, 0, 1]
    assert specialize_parabolic(farey_polynomial(Slope(0, 1), "generic")).coeffs == [2, -1]
    assert specialize_parabolic(Poly()).is_zero


def test_specialize_parabolic_matches_fast_path():
    from fareyslice import enumerate_farey

    for s in enumerate_farey(20):
        generic = farey_polynomial(s, "generic")
        assert specialize_parabolic(generic) == farey_polynomial(s, "parabolic")


def test_specialize_numeric_examples():
    inf = GeneratorParams(math.inf, math.inf)
    p = farey_polynomial(Slope(1, 2), "generic")
    numeric = specialize_numeric(p, inf)
    parabolic = specialize_parabolic(p)
    for cn, cp in zip(numeric.coeffs, parabolic.coeffs):
        assert abs(cn - cp) < 1e-12

    three = GeneratorParams(3, 3)
    p0 = specialize_numeric(farey_polynomial(Slope(0, 1), "generic"), three)
    assert abs(p0.coeffs[0] - 2) < 1e-12 and abs(p0.coeffs[1] + 1) < 1e-12
    p1 = specialize_numeric(farey_polynomial(Slope(1, 1), "generic"), three)
    assert abs(p1.coeffs[0] - (-1)) < 1e-12 and abs(p1.coeffs[1] - 1) < 1e-12


def test_specialize_numeric_agrees_with_direct_evaluation():
    params = GeneratorParams(3, 4)
    al, be = params.alpha, params.beta
    for slope in (Slope(1, 3), Slope(2, 5), Slope(3, 8)):
        generic = farey_polynomial(slope, "generic")
        numeric = specialize_numeric(generic, params)
        for z in (0.3 + 0.7j, -1.2 + 0.1j, 2.0 - 2.0j):
            direct = sum(
                c.evaluate(al, be) * z**k for k, c in enumerate(generic.coeffs)
            )
            assert abs(numeric.evaluate(z) - direct) <= 1e-9 * max(1, abs(direct))


def test_eval_complex():
    assert eval_complex(Poly([2, 0, 1]), 2j) == pytest.approx(-2)
    assert eval_complex(Poly([-6, 0, 1]), 5) == pytest.approx(19)
    assert eval_complex(Poly([2, -1]), 4) == pytest.approx(-2)


def test_eval_complex_warns_beyond_double_exact():
    with pytest.warns(UserWarning):
        eval_complex(Poly([2**60, 1]), 1.0)


def test_poly_sqrt_exact_examples():
    assert poly_sqrt_exact(Poly([1, -2, 1])).coeffs == [-1, 1]
    assert poly_sqrt_exact(Poly([0, 0, 1])).coeffs == [0, 1]
    assert poly_sqrt_exact(Poly([1, 0, 1])) is None
    assert poly_sqrt_exact(Poly([])).is_zero


def test_poly_sqrt_exact_random_roundtrip():
    rng = random.Random(20240817)
    for _ in range(1000):
        deg = rng.randrange(0, 31)
        r = Poly([rng.randrange(-10**6, 10**6) for _ in range(deg)] + [rng.randrange(1, 10**6)])
        back = poly_sqrt_exact(r * r)
        assert back is not None
        assert back == r or back == -r
        assert back.leading > 0


def test_is_perfect_square():
    assert is_perfect_square(2223081) == 1491
    assert is_perfect_square(0) == 0
    assert is_perfect_square(2) is None
    with pytest.raises(ValueError):
        is_perfect_square(-4)


def test_exact_division():
    assert exact_div(6, 3) == 2
    with pytest.raises(ZeroDivisor):
        exact_div(7, 3)
    assert exact_div(Poly([2, 4]), 2).coeffs == [1, 2]
    quotient = Poly([1, 2, 2, 1]).divmod_exact(Poly([1, 1]))
    assert quotient.coeffs == [1, 1, 1]
    with pytest.raises(ZeroDivisor):
        Poly([1, 0, 1]).divmod_exact(Poly([1, 1]))


def test_ring_labels_round_trip():
    for spec, label in (
        ("parabolic", "parabolic"),
        ("generic", "generic"),
        (GeneratorParams(3, 4), "numeric(3,4)"),
    ):
        ring = Ring.parse(spec)
        assert ring.label == label
        assert Ring.parse(label) == ring
        assert get_engine(label) is get_engine(spec)
    # Same trace values, different coefficient types: two engines.
    parabolic_cone = GeneratorParams(math.inf, math.inf)
    assert Ring.parse(parabolic_cone).label == "numeric(inf,inf)"
    assert get_engine("parabolic") is not get_engine(parabolic_cone)


@pytest.mark.parametrize(
    "call",
    [
        lambda: get_engine("bogus"),
        lambda: oracle.gen_matrix(Letter("X", 1), "bogus"),
        lambda: farey_polynomial(Slope(1, 2), "bogus"),
    ],
    ids=["get_engine", "gen_matrix", "farey_polynomial"],
)
def test_unknown_ring_raises_from_the_parser(call):
    with pytest.raises(ValueError, match="unknown ring") as info:
        call()
    assert info.traceback[-1].frame.code.raw is Ring.parse.__func__.__code__


def test_a_second_import_of_rings_is_freed():
    # The benchmark imports the library afresh before every pass; nothing
    # process-wide (such as typing's Union cache) may keep old copies alive.
    from fareyslice import rings

    name = "fareyslice._rings_copy"
    spec = importlib.util.spec_from_file_location(name, rings.__file__)
    copy = sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(copy)
        ref = weakref.ref(copy.Ring)
    finally:
        del sys.modules[name]
    del copy
    gc.collect()
    assert ref() is None
