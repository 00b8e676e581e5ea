import ast
import decimal
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fareyslice import (
    GeneratorParams,
    Laurent2,
    Poly,
    Slope,
    Word,
    concat_flip,
    enumerate_farey,
    farey_word,
    mediant,
    ominus,
    parents,
)
from fareyslice import oracle
from fareyslice.errors import FormalVertex, NotNeighbours
from fareyslice.recursion import farey_polynomial
from fareyslice.rings import Ring, Slots
from fareyslice.words import Letter


def S(text):
    return Slope.parse(text)


def test_generator_matrix_identities():
    for gen in ("X", "Y"):
        plus = oracle.gen_matrix(Letter(gen, 1))
        minus = oracle.gen_matrix(Letter(gen, -1))
        prod = plus @ minus
        assert prod == oracle.identity_matrix("generic")
        assert plus.det == Poly([Laurent2.const(1)])
    x = oracle.gen_matrix(Letter("X", 1))
    assert x.trace == Poly([Laurent2({(1, 0): 1, (-1, 0): 1})])


def test_word_matrix_parabolic_example():
    m = oracle.word_matrix(Word.from_string("yX"), "parabolic")
    assert m.a.coeffs == [1]
    assert m.b.coeffs == [1]
    assert m.c.coeffs == [0, -1]
    assert m.d.coeffs == [1, -1]


def test_word_matrix_cancellation():
    assert oracle.word_matrix(Word.from_string("xX")) == oracle.identity_matrix()


def test_word_matrix_determinants():
    for s in enumerate_farey(20):
        det = oracle.word_matrix(farey_word(s), "parabolic").det
        assert det == Poly([1])
    for s in enumerate_farey(12):
        det = oracle.word_matrix(farey_word(s), "generic").det
        assert det == Poly([Laurent2.const(1)])


def reference_word_matrix(w: Word, ring="generic") -> oracle.Mat2:
    """The letter-by-letter Mat2 product that the generic ring used to run."""
    m = oracle.identity_matrix(ring)
    for letter in w.letters:
        m = m @ oracle.gen_matrix(letter, ring)
    return m


@settings(max_examples=200)
@given(st.text(alphabet="XxYy", max_size=20))
@example("")
@example("xXyYYy")
@example("XXXX")
@example("yyyyy")
def test_packed_generic_word_matrix_matches_the_letter_loop(text):
    w = Word.from_string(text)
    assert oracle.word_matrix(w) == reference_word_matrix(w)


def _sign_free_majorant(w: Word) -> int:
    """max(a + d, b, c) of the product of [[1, 1], [0, 1]] (X, x) and
    [[1, 0], [1, 1]] (Y, y): it sets the packed slot width."""
    a, b, c, d = 1, 0, 0, 1
    for letter in w.letters:
        if letter.generator == "X":
            b, d = a + b, c + d
        else:
            a, c = a + b, c + d
    return max(a + d, b, c)


def _value_at_orders_3_4(c: Laurent2) -> complex:
    """c at alpha = e^(i pi/3), beta = e^(i pi/4), rounded once.

    alpha^i beta^j = zeta^(4i + 3j) with zeta = e^(i pi/12), so the exact
    integer coefficients are summed by power of zeta first and the 24
    sums weighted in 60-digit decimals.  Summing the terms in doubles
    loses up to 1e-7 relative to cancellation on the words below.
    """
    sums = [0] * 24
    for (i, j), v in c.terms.items():
        sums[(4 * i + 3 * j) % 24] += v
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        r2, r6 = decimal.Decimal(2).sqrt(), decimal.Decimal(6).sqrt()
        cos, sin = (r6 + r2) / 4, (r6 - r2) / 4
        x, y, re, im = decimal.Decimal(1), decimal.Decimal(0), 0, 0
        for total in sums:
            re, im = re + total * x, im + total * y
            x, y = x * cos - y * sin, x * sin + y * cos
        return complex(float(re), float(im))


@pytest.mark.parametrize(
    "text, slot_bytes",
    [("1/13", 3), ("1/25", 5), ("1/45", 8), ("1/50", 9), ("23/47", 9), ("(XY)^48", 9)],
)
def test_packed_generic_word_matrix_at_each_slot_width(text, slot_bytes):
    w = Word.from_string("XY" * 48) if text == "(XY)^48" else farey_word(S(text))
    assert oracle._slot_bytes(str(w)) == slot_bytes
    generic = oracle.word_matrix(w)
    assert generic == reference_word_matrix(w)
    for g, p in zip(generic, oracle.word_matrix(w, "parabolic")):
        assert Ring.parse("parabolic").specialize(g) == p
    for g, n in zip(generic, oracle.word_matrix(w, GeneratorParams(3, 4))):
        exact = [_value_at_orders_3_4(c) for c in g.coeffs]
        scale = max(map(abs, exact))
        assert len(exact) == len(n.coeffs)
        assert max(abs(e - v) for e, v in zip(exact, n.coeffs)) <= 1e-9 * scale


@pytest.mark.parametrize("q", [11, 17, 23, 46])
def test_slot_width_leaves_room_for_the_sign(q):
    # The majorant of 1/q has a bit length divisible by 8 here, so a
    # slot without the sign bit would be one byte narrower.
    w = farey_word(Slope(1, q))
    bound = _sign_free_majorant(w)
    size = oracle._slot_bytes(str(w))
    assert bound.bit_length() % 8 == 0
    assert 1 << (8 * size - 9) <= bound < 1 << (8 * size - 1)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 9])
def test_unpack_decodes_extreme_slot_values(size):
    # A word with n_x = 1 and n_y = 2: entry b holds the coefficient of
    # A^m B^n T^k at the layout's strides, shifted m a + n b + k t, and it
    # decodes as that of z^k alpha^(2m + k + 1 - n_x) beta^(2n + k - n_y).
    n_x, n_y = 1, 2
    layout = Slots(n_y + 1, n_x + 1, n_y + 1, -n_x, -n_y, 1, size)
    t_shift, a_shift, b_shift = layout.strides
    top = (1 << (8 * size - 1)) - 1
    monomials = [(m, n, k) for m in range(n_x + 1) for n in range(n_y + 1) for k in range(n_y + 1)]
    values = [(top, -top, 0, 1, -1, -top - 1)[t % 6] for t in range(len(monomials))]
    packed = sum(v << (m * a_shift + n * b_shift + k * t_shift) for (m, n, k), v in zip(monomials, values))
    expected = [{} for _ in range(n_y + 1)]
    for (m, n, k), v in zip(monomials, values):
        if v:
            expected[k][(2 * m + k + 1 - n_x, 2 * n + k - n_y)] = v
    got = oracle.Mat2._decoded_on_read((0, packed, 0, 0, layout))
    assert got.b == Poly([Laurent2(t) for t in expected])
    assert got.a == got.c == got.d == Poly()


@pytest.mark.parametrize(
    "text, slot_bytes",
    [("1/13", 3), ("1/25", 5), ("1/45", 8), ("1/50", 9), ("(XY)^48", 9), ("q <= 24", None)],
)
def test_packed_trace_is_one_decode_of_a_plus_d(monkeypatch, text, slot_bytes):
    if text == "q <= 24":
        words = [farey_word(s) for s in enumerate_farey(24) if not s.is_infinite]
    else:
        words = [Word.from_string("XY" * 48) if text == "(XY)^48" else farey_word(S(text))]
        assert oracle._slot_bytes(str(words[0])) == slot_bytes
    decodes = []
    unpack = Slots.unpack

    def counted(layout, v):
        decodes.append(layout.x0)
        return unpack(layout, v)

    monkeypatch.setattr(Slots, "unpack", counted)
    for w in words:
        decodes.clear()
        want = reference_word_matrix(w)
        assert decodes == [], "the reference went through the slot layout"
        # The trace first: one decode, at the offsets of a and d.
        m = oracle.word_matrix(w)
        trace = m.trace
        assert decodes == [-(str(w).count("X") + str(w).count("x"))], w
        assert trace == want.a + want.d, w
        assert [m.a, m.b, m.c, m.d] == list(want), w
        assert m.trace == trace, w
        # The entries first, then the trace.
        m = oracle.word_matrix(w)
        assert list(m) == list(want), w
        assert m.trace == trace, w


def test_lazy_entries_under_concurrent_reads():
    # Four threads, released together and switching every few
    # microseconds, read one shared packed matrix in rotated orders, so
    # that they race to decode and store the same entries.
    w = farey_word(S("5/12"))
    ref = reference_word_matrix(w)
    want = {"a": ref.a, "b": ref.b, "c": ref.c, "d": ref.d, "trace": ref.trace}
    names = list(want)
    start = threading.Barrier(4)

    def work(m, k):
        start.wait(timeout=60)
        return [(name, getattr(m, name)) for name in names[k:] + names[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(20):
                m = oracle.word_matrix(w)
                futures = [pool.submit(work, m, k) for k in range(4)]
                for f in futures:
                    for name, value in f.result(timeout=60):
                        assert value == want[name], name
                assert m == ref
    finally:
        sys.setswitchinterval(interval)


def test_oracle_polynomials_basic():
    assert oracle.farey_polynomial(S("0/1"), "generic") == Poly(
        [Laurent2({(1, -1): 1, (-1, 1): 1}), Laurent2.const(-1)]
    )
    assert oracle.farey_polynomial(S("1/1"), "generic") == Poly(
        [Laurent2({(1, 1): 1, (-1, -1): 1}), Laurent2.const(1)]
    )
    assert oracle.farey_polynomial(S("1/2"), "parabolic").coeffs == [2, 0, 1]
    with pytest.raises(FormalVertex):
        oracle.farey_polynomial(S("1/0"))


def test_oracle_degree_and_constant_term():
    for s in enumerate_farey(20):
        p = oracle.farey_polynomial(s, "parabolic")
        assert p.degree == s.q
        assert p.coeffs[0] == 2


def _neighbor_pairs(limit):
    pairs = [(S("0/1"), S("1/0")), (S("1/1"), S("1/0"))]
    for s in enumerate_farey(limit):
        if s.q >= 2:
            pairs.append(parents(s))
    return [(a, b) for a, b in pairs if a.q + b.q <= limit]


def test_product_trace_identity_exact():
    for a, b in _neighbor_pairs(16):
        if a.is_infinite or b.is_infinite:
            continue
        lhs = oracle.trace_product(a, b) + farey_polynomial(mediant(a, b), "generic")
        assert lhs == oracle.product_constant((a.q + b.q) % 2 == 0)


def test_quotient_trace_identity_exact():
    for a, b in _neighbor_pairs(16):
        if a.is_infinite or b.is_infinite:
            continue
        lhs = oracle.trace_quotient(a, b) + farey_polynomial(ominus(a, b), "generic")
        assert lhs == oracle.quotient_constant((a.q - b.q) % 2 == 0)


def test_parabolic_product_identity():
    four = Poly([4])
    for a, b in _neighbor_pairs(14):
        if a.is_infinite or b.is_infinite:
            continue
        lhs = oracle.trace_product(a, b, "parabolic")
        rhs = four - farey_polynomial(mediant(a, b), "parabolic")
        assert lhs == rhs


def test_trace_product_rejections():
    with pytest.raises(NotNeighbours):
        oracle.trace_product(S("1/3"), S("3/7"))
    with pytest.raises(NotNeighbours):
        oracle.trace_product(S("2/5"), S("1/3"))


@pytest.mark.parametrize(
    "a, b",
    [("1/3", "3/7"), ("1/1", "1/2"), ("2/5", "1/3"), ("0/1", "1/0"), ("1/0", "0/1"), ("1/0", "1/1")],
)
def test_pair_rejections_match_concat_flip(a, b):
    # One pair check serves the word product rule and the trace identities:
    # each rejected pair raises the same exception, with the same message.
    with pytest.raises((NotNeighbours, FormalVertex)) as want:
        concat_flip(S(a), S(b))
    for entry in (oracle.trace_product, oracle.trace_quotient):
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            entry(S(a), S(b))


def test_oracle_imports_none_of_the_routes_it_checks():
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    forbidden = {"recursion", "frf", "pleating", "conjecture"}
    assert names and not [n for n in names if forbidden & set(n.split("."))]
