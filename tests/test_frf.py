import cmath
import math
import random
from fractions import Fraction

import pytest

from fareyslice import (
    Poly,
    Slope,
    boundary_sequence,
    enumerate_farey,
    farey_polynomial,
    homogeneous_farey_polynomial,
)
from fareyslice import frf
from fareyslice.errors import DegenerateEigenvalues, SingularParameter


def S(text):
    return Slope.parse(text)


def _phi_spec():
    return frf.FRFSpec(
        d1=lambda _: 1,
        d2=None,
        d3=lambda _: Poly([8]),
        seeds={
            S("0/1"): Poly([2, -1]),
            S("1/0"): Poly([2]),
            S("1/1"): Poly([2, 1]),
        },
    )


def test_frf_reproduces_trace_polynomials():
    spec = _phi_spec()
    for s in enumerate_farey(12):
        assert frf.frf_eval(spec, s) == farey_polynomial(s, "parabolic")


def test_frf_reproduces_homogeneous_family():
    # The FRF step multiplies at every slope, so it checks each mirror
    # image of the family's engine independently.
    spec = frf.homogeneous_spec()
    for s in enumerate_farey(60):
        assert frf.frf_eval(spec, s) == homogeneous_farey_polynomial(s)


def test_frf_constant_solution():
    spec = frf.FRFSpec(
        d1=lambda _: 1,
        d2=None,
        d3=lambda _: Poly([8]),
        seeds={S("0/1"): Poly([2]), S("1/0"): Poly([2]), S("1/1"): Poly([2])},
    )
    for s in enumerate_farey(10):
        assert frf.frf_eval(spec, s) == Poly([2])


def test_frf_external_d2_matches_self_form():
    # d2 given explicitly as minus the true solution gives the same family.
    spec = frf.FRFSpec(
        d1=lambda _: 1,
        d2=lambda a: -farey_polynomial(a, "parabolic"),
        d3=lambda _: Poly([8]),
        seeds={
            S("0/1"): Poly([2, -1]),
            S("1/0"): Poly([2]),
            S("1/1"): Poly([2, 1]),
        },
    )
    for s in enumerate_farey(10):
        assert frf.frf_eval(spec, s) == farey_polynomial(s, "parabolic")


def test_boundary_matrix_power_positive():
    spec = frf.homogeneous_spec()
    for alpha in (S("1/2"), S("1/3"), S("2/3"), S("2/5")):
        for n in range(0, 9):
            got = frf.boundary_matrix_power(spec, alpha, n)
            want = (
                homogeneous_farey_polynomial(boundary_sequence(alpha, n)),
                homogeneous_farey_polynomial(boundary_sequence(alpha, n + 1)),
            )
            assert got == want


def test_boundary_matrix_power_negative():
    spec = frf.homogeneous_spec()
    for alpha in (S("1/2"), S("1/3"), S("2/3"), S("2/5")):
        for n in range(-8, 0):
            got = frf.boundary_matrix_power(spec, alpha, n)
            want = (
                homogeneous_farey_polynomial(boundary_sequence(alpha, n)),
                homogeneous_farey_polynomial(boundary_sequence(alpha, n + 1)),
            )
            assert got == want


def test_boundary_matrix_power_n1_example():
    spec = frf.homogeneous_spec()
    got = frf.boundary_matrix_power(spec, S("1/2"), 1)
    assert got[0] == homogeneous_farey_polynomial(S("2/3"))
    assert got[1] == homogeneous_farey_polynomial(S("3/5"))


def test_closed_form_left_small_q():
    for z in (1 + 1j, -2.5 + 0.3j, 3.7 - 1.1j):
        assert abs(frf.closed_form_left(z, 0) - 2) < 1e-9
        assert abs(frf.closed_form_left(z, 1) - (z + 2)) < 1e-9


def _assert_closed_form_left(z, q):
    # Reference values come from the recursion run pointwise at z: the
    # expanded coefficients exceed 1e14 by q = 40, so Horner on them
    # cancels catastrophically while the recurrence stays stable.
    closed = frf.closed_form_left(z, q)
    direct = frf.left_sequence(z, q)
    assert abs(closed - direct) <= 1e-9 * max(1.0, abs(direct))
    if q <= 12:
        horner = farey_polynomial(Slope(1, q), "parabolic").evaluate(z)
        assert abs(closed - horner) <= 1e-9 * max(1.0, abs(horner))


def test_closed_form_left_matches_recursion():
    # 100 random (z, q) with q up to 40.
    rng = random.Random(7)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z) < 1e-3 or abs(z - 4) < 1e-3:
            continue
        _assert_closed_form_left(z, rng.randrange(0, 41))


def test_closed_form_left_matches_direct_recurrence():
    # Three fixed z at every q < 25, so no q in that range is left out.
    for z in (1 + 2j, -3 + 0.5j, 0.4 - 4j):
        for q in range(25):
            _assert_closed_form_left(z, q)


def test_closed_form_left_rejects_singular():
    for z in (0, 4, 0j, 4 + 0j):
        with pytest.raises(SingularParameter):
            frf.closed_form_left(z, 3)


def test_closed_form_homog_left():
    assert abs(frf.closed_form_homog_left(5, 2, 2, 7) - 19) < 1e-9
    with pytest.raises(SingularParameter):
        frf.closed_form_homog_left(4, 3, 2, 6)
    # the fallback recurrence at z=4 is arithmetic with step 4
    values = [frf.left_sequence(4, q, constant=0) for q in range(6)]
    assert values == [2, 6, 10, 14, 18, 22]


def test_homogeneous_cycles():
    # periodic fan values at small integer parameters
    seq1 = [frf.left_sequence(1, q, constant=0) for q in range(1, 10)]
    assert seq1[:3] == [3, -5, 2] and seq1[3:6] == [3, -5, 2]
    assert frf.detect_cycle(1, 8) == 3
    assert frf.detect_cycle(2, 8) == 4
    assert frf.detect_cycle(3, 8) == 6
    assert frf.detect_cycle(5, 12) is None
    # z = 2 + 2 cos(2 pi/m) puts the fan eigenvalues at primitive m-th
    # roots of unity, so the sequence has period m up to rounding.
    for m in (5, 7):
        assert frf.detect_cycle(2 + 2 * math.cos(2 * math.pi / m), 10) == m
    assert frf.detect_cycle(1.5 + 0.5j, 10) is None


def test_homogeneous_fibonacci_like_at_five():
    vals = [frf.left_sequence(5, q, constant=0) for q in range(1, 31)]
    assert vals[0] == 7 and vals[1] == 19
    for i in range(2, len(vals)):
        assert vals[i] == 3 * vals[i - 1] - vals[i - 2]
    for q in range(1, 31):
        assert homogeneous_farey_polynomial(Slope(1, q)).evaluate(5) == vals[q - 1]


def test_closed_form_triangle_base_cases():
    z = 2 + 1j
    b0, b1 = S("1/1"), S("2/3")
    f0 = homogeneous_farey_polynomial(b0).evaluate(z)
    f1 = homogeneous_farey_polynomial(b1).evaluate(z)
    assert abs(frf.closed_form_triangle(b0, b1, 0, z) - f0) < 1e-9
    assert abs(frf.closed_form_triangle(b0, b1, 1, z) - f1) < 1e-9


def test_closed_form_triangle_matches_recursion():
    from fareyslice.slopes import ominus

    rng = random.Random(11)
    fans = [(S("1/1"), S("2/3")), (S("1/2"), S("2/5")), (S("1/3"), S("3/8"))]
    for _ in range(60):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        b0, b1 = fans[rng.randrange(len(fans))]
        alpha = ominus(b1, b0)
        n = rng.randrange(0, 12)
        try:
            got = frf.closed_form_triangle(b0, b1, n, z)
        except DegenerateEigenvalues:
            continue
        cur = b0
        if n:
            cur = b1
            for _ in range(n - 1):
                cur = Slope(cur.p + alpha.p, cur.q + alpha.q)
        want = homogeneous_farey_polynomial(cur).evaluate(z)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_closed_form_triangle_rejects_degenerate():
    # at z with fan value +-2 the eigenvalues collapse
    b0, b1 = S("1/1"), S("2/3")  # fan direction 1/2, value z^2 - 6
    z = cmath.sqrt(8)  # gives 2
    with pytest.raises(DegenerateEigenvalues):
        frf.closed_form_triangle(b0, b1, 3, z)


def test_chebyshev_product_relation():
    for m in range(0, 11):
        for n in range(0, 11):
            lhs = Poly([2]) * frf.chebyshev_T(m) * frf.chebyshev_T(n)
            rhs = frf.chebyshev_T(m + n) + frf.chebyshev_T(abs(m - n))
            assert lhs == rhs


def test_fan_polynomial_is_a_chebyshev_sum():
    # The homogeneous 1/q polynomial is 2 T_q(x) + 4 U_(q-1)(x) at
    # x = (z - 2)/2, exactly; U runs its own recurrence here.
    x = Poly([Fraction(-1), Fraction(1, 2)])

    def at_x(p):
        acc = Poly()
        for c in reversed(p.coeffs):
            acc = acc * x + Poly([c])
        return acc

    u_prev, u = Poly(), Poly([1])
    for q in range(31):
        want = at_x(frf.chebyshev_T(q).scale(2) + u_prev.scale(4))
        assert homogeneous_farey_polynomial(Slope(1, q)) == want, q
        u_prev, u = u, Poly([0, 2]) * u - u_prev


def test_chebyshev_match_fails_from_a_wrong_seed(monkeypatch):
    # Started at 3 + z instead of 2 + z, the fan sequence is off by
    # U_(q-1)(x), which vanishes at no q >= 1 for this z.
    def wrong_seed(z, q, constant=8):
        cur, prev = 3 + z, 2
        for _ in range(q - 1):
            cur, prev = constant - (2 - z) * cur - prev, cur
        return cur if q else prev

    monkeypatch.setattr(frf, "left_sequence", wrong_seed)
    assert frf.chebyshev_match(0, 1.5 + 0.5j)
    assert not any(frf.chebyshev_match(q, 1.5 + 0.5j) for q in range(1, 31))


def test_chebyshev_match():
    assert frf.chebyshev_match(0, 1.37)
    assert frf.chebyshev_match(2, 3)
    rng = random.Random(3)
    for _ in range(50):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        for q in range(0, 31):
            assert frf.chebyshev_match(q, z)
