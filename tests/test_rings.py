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
    farey_polynomial,
    is_perfect_square,
    poly_sqrt_exact,
)
from fareyslice import oracle, rings
from fareyslice.errors import ZeroDivisor
from fareyslice.recursion import get_engine
from fareyslice.rings import Ring, exact_div, poly_mul_count
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


def reference_poly_mul(a: Poly, b: Poly) -> list[dict]:
    """The product's terms by power of z, by a per-coefficient double loop."""
    out = [{} for _ in range(max(0, len(a.coeffs) + len(b.coeffs) - 1))]
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = reference_add(out[i + j], reference_mul(terms_of(ca), terms_of(cb)))
    while out and not out[-1]:
        out.pop()
    return out


def _sheared_even(rows: list, di: int, dj: int) -> Poly:
    """Terms whose i - k and j - k are all of one parity, as in trace polynomials."""
    return Poly(
        Laurent2({(2 * x + k + di, 2 * y + k + dj): c for (x, y), c in row.items()})
        for k, row in enumerate(rows)
    )


big_coeffs = st.integers(-(10**6), 10**6)
# Terms of every parity, with plain ints among the coefficients.
mixed_polys = st.lists(
    st.one_of(
        st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), big_coeffs, max_size=6).map(Laurent2),
        st.integers(-9, 9),
    ),
    max_size=5,
).map(Poly)
even_polys = st.builds(
    _sheared_even,
    st.lists(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), big_coeffs, max_size=6), max_size=5),
    st.integers(-2, 2),
    st.integers(-2, 2),
)
generic_polys = st.one_of(mixed_polys, even_polys)

_WIDE = Poly([
    Laurent2({(0, 0): 2**70, (1, 1): -3, (2, 0): 5}),
    Laurent2({(1, -1): 2**64 + 1, (-1, 1): -(2**63), (0, 2): 7}),
])


@settings(max_examples=300)
@given(generic_polys, generic_polys)
@example(Poly(), _WIDE)
@example(_WIDE, Poly([Laurent2()]))
@example(farey_polynomial(Slope(0, 1), "generic"), oracle.farey_polynomial(Slope(3, 8)))
@example(oracle.farey_polynomial(Slope(5, 12)), oracle.farey_polynomial(Slope(3, 8)))
@example(_WIDE, Poly([Laurent2({(0, 0): -(2**80)}), 1, 2, 3, 4]))
@example(Poly([1, 2, Laurent2({(1, 0): 1}), 3]), Poly([Laurent2({(0, 1): -1}), 0, 4, 5]))
def test_generic_poly_product_matches_the_double_loop(a, b):
    want = reference_poly_mul(a, b)
    before = poly_mul_count()
    got = a * b
    assert poly_mul_count() == before + 1
    assert [terms_of(c) for c in got.coeffs] == want
    assert all(all(terms_of(c).values()) for c in got.coeffs), "a zero coefficient is stored"
    # The packed product itself, also on the seed-sized and all-int
    # factors that the double loop takes.
    if a.coeffs and b.coeffs:
        assert [terms_of(c) for c in rings._packed_product(a.coeffs, b.coeffs).coeffs] == want


def _snapshot(x):
    if isinstance(x, Poly):
        return [dict(terms_of(c)) for c in x.coeffs]
    return dict(terms_of(x))


# Laurent2 and int operands, polynomials of either, and pairs whose
# difference cancels to zero, in whole or in its top coefficients.
subtraction_pairs = st.one_of(
    st.tuples(operands, operands),
    laurents.map(lambda x: (x, x)),
    st.tuples(generic_polys, st.one_of(generic_polys, small_polys)),
    st.tuples(small_polys, generic_polys),
    generic_polys.map(lambda p: (p, p)),
    st.tuples(generic_polys, generic_polys).map(lambda t: (t[0] + t[1], t[0])),
)


@settings(max_examples=300)
@given(subtraction_pairs)
@example((Poly([Laurent2.const(4)]), oracle.farey_polynomial(Slope(5, 12))))
@example((oracle.farey_polynomial(Slope(5, 12)), oracle.farey_polynomial(Slope(1, 3))))
@example((Laurent2.const(2), 2))
def test_subtraction_is_adding_the_negation(pair):
    x, y = pair
    before = _snapshot(x), _snapshot(y)
    got = x - y
    assert got == x + (-y)
    if isinstance(got, Poly):
        assert not got.coeffs or got.coeffs[-1], "a trailing zero is stored"
        assert all(all(terms_of(c).values()) for c in got.coeffs), "a zero coefficient is stored"
    elif isinstance(got, Laurent2):
        assert all(got.terms.values()), "a zero coefficient is stored"
    # The zero fast path may return an operand; no path may write to one.
    assert (_snapshot(x), _snapshot(y)) == before


def test_wide_packed_product_decodes_past_int64():
    got = _WIDE * _WIDE
    assert max(abs(v) for c in got.coeffs for v in c.terms.values()) == 2**140
    assert [c.terms for c in got.coeffs] == reference_poly_mul(_WIDE, _WIDE)


@st.composite
def packed_terms(draw):
    """A slot layout and some of its slots, each with a coefficient that fits.

    Halved layouts give exponents of one parity, unhalved ones of both.
    """
    size = draw(st.integers(1, 10))
    layout = rings.Slots(
        length=draw(st.integers(1, 4)),
        nx=draw(st.integers(1, 4)),
        ny=draw(st.integers(1, 4)),
        x0=draw(st.integers(-6, 3)),
        y0=draw(st.integers(-6, 3)),
        halve=draw(st.integers(0, 1)),
        size=size,
    )
    top = (1 << (8 * size - 1)) - 1
    values = st.one_of(st.sampled_from([top, -top, -top - 1]), st.integers(-top - 1, top).filter(bool))
    slots = st.tuples(
        st.integers(0, layout.length - 1), st.integers(0, layout.nx - 1), st.integers(0, layout.ny - 1)
    )
    return layout, draw(st.dictionaries(slots, values, max_size=12))


# The extreme values of 9-byte slots, past what the int64 decoder reads.
_EXTREMES = {
    (k, x, y): (2**71 - 1, -(2**71) + 1, -(2**71))[(k + x + y) % 3]
    for k in range(2)
    for x in range(2)
    for y in range(3)
}


@settings(max_examples=300)
@given(packed_terms())
@example((rings.Slots(2, 2, 3, -4, -1, 1, 9), _EXTREMES))
@example((rings.Slots(2, 2, 3, -3, 0, 0, 9), _EXTREMES))
def test_slot_layout_round_trip(case):
    layout, slots = case
    rows = [{} for _ in range(layout.length)]
    for (k, x, y), c in slots.items():
        rows[k][(x << layout.halve) + k + layout.x0, (y << layout.halve) + k + layout.y0] = c
    terms = Poly(map(Laurent2, rows))
    packed = layout.pack(rings.Slots.shear(terms.coeffs))
    # Slot (k nx + x) ny + y holds its coefficient times 2^(8 size slot).
    assert packed == sum(
        c << 8 * layout.size * ((k * layout.nx + x) * layout.ny + y) for (k, x, y), c in slots.items()
    )
    assert layout.unpack(packed) == terms


def test_specialize_parabolic_examples():
    parabolic = Ring.parse("parabolic")
    assert parabolic.specialize(farey_polynomial(Slope(1, 2), "generic")).coeffs == [2, 0, 1]
    assert parabolic.specialize(farey_polynomial(Slope(0, 1), "generic")).coeffs == [2, -1]
    assert parabolic.specialize(Poly()).is_zero


def test_specialize_parabolic_matches_fast_path():
    from fareyslice import enumerate_farey

    for s in enumerate_farey(20):
        generic = farey_polynomial(s, "generic")
        assert Ring.parse("parabolic").specialize(generic) == farey_polynomial(s, "parabolic")


def test_specialize_numeric_examples():
    inf = GeneratorParams(math.inf, math.inf)
    p = farey_polynomial(Slope(1, 2), "generic")
    numeric = Ring.parse(inf).specialize(p)
    parabolic = Ring.parse("parabolic").specialize(p)
    for cn, cp in zip(numeric.coeffs, parabolic.coeffs):
        assert abs(cn - cp) < 1e-12

    three = GeneratorParams(3, 3)
    p0 = Ring.parse(three).specialize(farey_polynomial(Slope(0, 1), "generic"))
    assert abs(p0.coeffs[0] - 2) < 1e-12 and abs(p0.coeffs[1] + 1) < 1e-12
    p1 = Ring.parse(three).specialize(farey_polynomial(Slope(1, 1), "generic"))
    assert abs(p1.coeffs[0] - (-1)) < 1e-12 and abs(p1.coeffs[1] - 1) < 1e-12


def test_specialize_numeric_agrees_with_direct_evaluation():
    params = GeneratorParams(3, 4)
    al, be = params.alpha, params.beta
    for slope in (Slope(1, 3), Slope(2, 5), Slope(3, 8)):
        generic = farey_polynomial(slope, "generic")
        numeric = Ring.parse(params).specialize(generic)
        for z in (0.3 + 0.7j, -1.2 + 0.1j, 2.0 - 2.0j):
            direct = sum(
                c.evaluate(al, be) * z**k for k, c in enumerate(generic.coeffs)
            )
            assert abs(numeric.evaluate(z) - direct) <= 1e-9 * max(1, abs(direct))


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
