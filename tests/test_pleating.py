import math
import warnings

import pytest

from fareyslice import (
    CFExpansion,
    GeneratorParams,
    Poly,
    Slope,
    enumerate_farey,
    farey_polynomial,
)
from fareyslice import pleating
from fareyslice.errors import DegreeOverflow

# Exact evaluation oracle for forward accuracy.  Doubles are dyadic
# rationals, so Horner's rule over integers scaled by 2**FIXED_BITS rounds
# only in one floor shift per step (about 2**-128 relative).
FIXED_BITS = 128


def _to_fixed(x: float) -> int:
    m, e = math.frexp(x)
    mantissa = int(m * (1 << 53))
    shift = e - 53 + FIXED_BITS
    return mantissa << shift if shift >= 0 else mantissa >> -shift


def eval_dyadic(int_coeffs: list[int], z: complex) -> complex:
    x, y = _to_fixed(z.real), _to_fixed(z.imag)
    re = im = 0
    for c in reversed(int_coeffs):
        re, im = (
            ((re * x - im * y) >> FIXED_BITS) + (c << FIXED_BITS),
            (re * y + im * x) >> FIXED_BITS,
        )
    scale = 1 << FIXED_BITS
    return complex(re / scale, im / scale)


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
    rs = pleating.roots(Poly([4, 0, 1]))
    assert sorted((round(z.real, 9), round(z.imag, 9)) for z in rs.roots) == [
        (0, -2), (0, 2),
    ]
    assert max(rs.residuals) < 1e-12
    rs = pleating.roots(Poly([4, -1]))
    assert abs(rs.roots[0] - 4) < 1e-12


def test_roots_with_zero_roots_deflated():
    rs = pleating.roots(Poly([0, 0, -1, 1]))  # z^2 (z - 1)
    assert sorted(round(abs(z), 9) for z in rs.roots) == [0.0, 0.0, 1.0]


def test_roots_rejects_overflowing_coefficients():
    with pytest.raises(DegreeOverflow):
        pleating.all_roots([1.0, float("inf")])


def test_roots_rejects_overflowing_evaluation():
    # finite coefficients whose evaluation overflows doubles mid-iteration
    with pytest.raises(DegreeOverflow):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pleating.cusp_candidates(Slope(169, 239))


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


def test_cusp_candidates_forward_accurate_up_to_40():
    # The exact Newton correction at every root is within 1e-12 relative.
    for s in enumerate_farey(40):
        rs = pleating.cusp_candidates(s)
        shifted = (farey_polynomial(s, "parabolic") + Poly([2])).coeffs
        deriv = [k * c for k, c in enumerate(shifted)][1:]
        for z in rs.roots:
            step = eval_dyadic(shifted, z) / eval_dyadic(deriv, z)
            assert abs(step) <= 1e-12 * (1 + abs(z)), (s, z, step)


# 98/99: the first Aberth step flings a particle to |z| ~ 4e3, where P
# overflows doubles; the particle must be pulled back, not spread NaN.
# 127/128: P overflows even on the root-bound circle, so the Newton ratio
# there must come from the reversed polynomial.
@pytest.mark.parametrize(
    "s", [Slope(89, 144), Slope(98, 99), Slope(127, 128)], ids=str
)
def test_cusp_candidates_past_degree_guard(s):
    with pytest.warns(UserWarning, match="comfort zone"):
        rs = pleating.cusp_candidates(s)
    assert_root_set_properties(rs, farey_polynomial(s, "parabolic").coeffs)


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


def test_irrational_cusp_path_sqrt2():
    sqrt2 = CFExpansion((0, 1, 2), period=1)
    sets = pleating.irrational_cusp_path(sqrt2, 4)
    assert [rs.slope for rs in sets] == [S("1/1"), S("2/3"), S("5/7"), S("12/17")]


def test_extremal_root_heuristic():
    rs = pleating.cusp_candidates(S("1/2"))
    assert pleating.extremal_root_heuristic(rs) == max(rs.roots, key=lambda z: z.imag)
    single = pleating.cusp_candidates(S("0/1"))
    assert abs(pleating.extremal_root_heuristic(single) - 4) < 1e-12


def test_degree_guard_warns():
    with pytest.warns(UserWarning):
        pleating.cusp_candidates(S("34/55") if False else Slope(55, 89))


def test_dynsys_report():
    report = pleating.dynsys_check()
    assert report.all_pass, str(report)
    names = [name for name, _, _ in report.checks]
    assert any("fixed point (2,2,2)" in n for n in names)
    assert any("fixed point (-4,-4,-4)" in n for n in names)
    assert sum("eigenpair" in n for n in names) == 6
    assert sum("determinant" in n for n in names) == 2
    assert sum("char poly" in n for n in names) == 2


def test_roots_warns_on_lossy_inexact_input():
    with pytest.warns(UserWarning, match=r"2\*\*53"):
        pleating.roots(Poly([2**60, 1j, 1]))


def test_roots_warns_on_integer_input_past_double_range():
    with pytest.warns(UserWarning, match=r"2\*\*53"):
        pleating.roots(Poly([2**60, 1, 1]))


def test_exact_coefficients_past_double_range_do_not_warn():
    # 1/42 is the first slope with a coefficient past 2**53, below DEGREE_GUARD;
    # the roots come from the recursion's values, and the doubles only seed
    # and score the iteration, so nothing is lost.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pleating.cusp_candidates(Slope(1, 42))


# z^2 + 4, and z^3 + 4z, whose exact zero root is split off and the
# evaluator deflated.
@pytest.mark.parametrize(
    "coeffs, evaluate, want",
    [
        ([4, 0, 1], lambda z: (z * z + 4, 2 * z), [(0, -2), (0, 2)]),
        ([0, 4, 0, 1], lambda z: (z**3 + 4 * z, 3 * z * z + 4), [(0, -2), (0, 0), (0, 2)]),
    ],
    ids=["z^2+4", "z^3+4z"],
)
def test_all_roots_with_an_evaluator(coeffs, evaluate, want):
    rs, res, ok = pleating.all_roots(coeffs, evaluate=evaluate)
    assert ok and max(res) < 1e-15
    assert sorted((round(z.real, 12), round(z.imag, 12)) for z in rs) == want


def test_cusp_candidates_with_a_root_at_zero():
    # At orders (2, 2) the constant of P + 2 is exactly 0 for 1/1, 1/3, ...
    params = GeneratorParams(2, 2)
    assert pleating.cusp_candidates(S("1/1"), params).roots == [0j]
    rs = pleating.cusp_candidates(S("1/3"), params)
    assert 0j in rs.roots
    for rs in pleating.slice_cloud(5, params):
        assert_root_set_properties(rs, farey_polynomial(rs.slope, params).coeffs)
