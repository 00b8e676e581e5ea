import ast
from pathlib import Path

import pytest

from fareyslice import (
    Laurent2,
    Poly,
    Slope,
    Word,
    enumerate_farey,
    farey_word,
    mediant,
    ominus,
    parents,
)
from fareyslice import oracle
from fareyslice.errors import FormalVertex, NotNeighbours
from fareyslice.recursion import farey_polynomial
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
    for s in enumerate_farey(8):
        det = oracle.word_matrix(farey_word(s), "generic").det
        assert det == Poly([Laurent2.const(1)])


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
