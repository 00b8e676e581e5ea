from hypothesis import given, settings, strategies as st

from fareyslice import GeneratorParams, enumerate_farey, farey_polynomial
from fareyslice import pleating, serialize


def assert_round_trip(s, ring):
    """poly -> JSON -> parse -> JSON is byte-stable and gives poly back."""
    label = ring if isinstance(ring, str) else f"numeric({ring.label()})"
    poly = farey_polynomial(s, ring)
    text = serialize.dumps_canonical(serialize.polynomial_payload(s, label, poly))
    slope, parsed_ring, back = serialize.parse_polynomial(text)
    assert (slope, parsed_ring) == (s, label)
    assert back == poly
    again = serialize.dumps_canonical(serialize.polynomial_payload(slope, parsed_ring, back))
    assert again == text


slopes_to_12 = st.sampled_from(enumerate_farey(12))
slopes_to_40 = st.sampled_from(enumerate_farey(40))


@settings(max_examples=40, deadline=None)
@given(slopes_to_40)
def test_parabolic_polynomial_roundtrip(s):
    assert_round_trip(s, "parabolic")


@settings(max_examples=40, deadline=None)
@given(slopes_to_12)
def test_generic_polynomial_roundtrip(s):
    assert_round_trip(s, "generic")


@settings(max_examples=40, deadline=None)
@given(slopes_to_40)
def test_numeric_polynomial_roundtrip(s):
    assert_round_trip(s, GeneratorParams(3, 4))


def test_roots_csv():
    sets = pleating.slice_cloud(2)
    text = serialize.roots_csv(sets)
    lines = text.strip().splitlines()
    assert lines[0] == "re,im,p,q,residual"
    assert len(lines) == 1 + 4
    assert lines[1].split(",")[2:4] == ["0", "1"]
    rows = [line.split(",") for line in lines[1:]]
    parsed = [(float(re), float(im), int(p), int(q), float(r)) for re, im, p, q, r in rows]
    assert parsed == [
        (z.real, z.imag, rs.slope.p, rs.slope.q, r)
        for rs in sets
        for z, r in zip(rs.roots, rs.residuals)
    ]


def test_scatter_svg():
    svg = serialize.scatter_svg([(0.0, 1.0), (2.0, -1.0)])
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 2
    assert 'viewBox="0 0 1 1"' in svg
    assert serialize.scatter_svg([]).count("<circle") == 0
