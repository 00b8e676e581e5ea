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


def test_irrational_cusp_path_golden():
    golden = CFExpansion((0, 1), period=1)
    sets = pleating.irrational_cusp_path(golden, 6)
    assert [rs.slope for rs in sets] == [
        S("1/1"), S("1/2"), S("2/3"), S("3/5"), S("5/8"), S("8/13"),
    ]
    assert abs(sets[0].roots[0] + 4) < 1e-12
    for rs in sets:
        assert max(rs.residuals) < 1e-8


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


def test_exact_coefficients_past_double_range_do_not_warn():
    # 1/42 is the first slope with a coefficient past 2**53, below DEGREE_GUARD;
    # exact integer input is polished exactly, so nothing is lost.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pleating.cusp_candidates(Slope(1, 42))
