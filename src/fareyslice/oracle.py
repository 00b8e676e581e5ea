"""Ground-truth trace polynomials by explicit 2x2 matrix multiplication.

This module never touches the triangle recursion: it computes the trace
of the word matrix directly from the generator matrices, so it serves as
an independent oracle for everything the recursion engine produces.

The generator matrices are upper/lower triangular with unit determinant;
their entries are polynomials in the trace variable whose coefficients
live in the chosen ring: exact bivariate Laurent ("generic"), plain
integers ("parabolic"), or complex doubles (numeric cone parameters).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import FormalVertex, NotNeighbours
from .rings import Laurent2, Poly, Ring, RingSpec
from .slopes import Slope, is_neighbor
from .words import Letter, Word, farey_word

__all__ = [
    "Mat2",
    "gen_matrix",
    "word_matrix",
    "farey_polynomial",
    "trace_product",
    "trace_quotient",
    "recursion_constant",
    "product_constant",
    "quotient_constant",
]

class Mat2(NamedTuple):
    """Row-major 2x2 matrix with polynomial entries."""

    a: Poly
    b: Poly
    c: Poly
    d: Poly

    def __matmul__(self, other: "Mat2") -> "Mat2":
        a1, b1, c1, d1 = self
        a2, b2, c2, d2 = other
        return Mat2(
            a1 * a2 + b1 * c2,
            a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2,
            c1 * b2 + d1 * d2,
        )

    @property
    def trace(self) -> Poly:
        return self.a + self.d

    @property
    def det(self) -> Poly:
        return self.a * self.d - self.b * self.c


# alpha, alpha^-1, beta, beta^-1 and one as generic coefficients.
_GENERATOR_SCALARS = (
    Laurent2.term(1, 1, 0),
    Laurent2.term(1, -1, 0),
    Laurent2.term(1, 0, 1),
    Laurent2.term(1, 0, -1),
    Laurent2.const(1),
)


def _scalars(ring: RingSpec):
    return tuple(map(Ring.parse(ring).coeff, _GENERATOR_SCALARS))


def identity_matrix(ring: RingSpec = "generic") -> Mat2:
    one = _scalars(ring)[-1]
    return Mat2(Poly([one]), Poly(), Poly(), Poly([one]))


def gen_matrix(letter: Letter, ring: RingSpec = "generic") -> Mat2:
    """The matrix of one generator letter, exact in the chosen ring."""
    al, ali, be, bei, one = _scalars(ring)
    if letter.generator == "X":
        if letter.exponent == 1:
            return Mat2(Poly([al]), Poly([one]), Poly(), Poly([ali]))
        return Mat2(Poly([ali]), Poly([-one]), Poly(), Poly([al]))
    if letter.exponent == 1:
        return Mat2(Poly([be]), Poly(), Poly([0, one]), Poly([bei]))
    return Mat2(Poly([bei]), Poly(), Poly([0, -one]), Poly([be]))


def word_matrix(w: Word, ring: RingSpec = "generic") -> Mat2:
    """Left-to-right product of the letter matrices.

    Each distinct letter's matrix is built once per call.
    """
    ring = Ring.parse(ring)
    mats = {letter: gen_matrix(letter, ring) for letter in set(w.letters)}
    m = identity_matrix(ring)
    for letter in w.letters:
        m = m @ mats[letter]
    return m


def farey_polynomial(s: Slope, ring: RingSpec = "generic") -> Poly:
    """Trace of the Farey word matrix; degree equals the denominator."""
    if s.is_infinite:
        raise FormalVertex("1/0 has no word; its trace value is axiomatic")
    return word_matrix(farey_word(s), ring).trace


def trace_product(a: Slope, b: Slope, ring: RingSpec = "generic") -> Poly:
    """Trace of the product word of a neighbour pair a < b."""
    _check_pair(a, b)
    return word_matrix(farey_word(a) * farey_word(b), ring).trace


def trace_quotient(a: Slope, b: Slope, ring: RingSpec = "generic") -> Poly:
    """Trace of W(a) * W(b)^-1 for a neighbour pair a < b."""
    _check_pair(a, b)
    return word_matrix(farey_word(a) * farey_word(b).inverse(), ring).trace


def _check_pair(a: Slope, b: Slope) -> None:
    if not is_neighbor(a, b):
        raise NotNeighbours(f"{a} and {b} are not Farey neighbours")
    if not a < b:
        raise NotNeighbours(f"expected {a} < {b}")
    if a.is_infinite or b.is_infinite:
        raise FormalVertex("1/0 has no Farey word")


def _const(ring: RingSpec, generic: Laurent2) -> Poly:
    return Poly([Ring.parse(ring).coeff(generic)])


_EVEN_SUM = Laurent2({(0, 0): 4, (2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1})
_ODD_SUM = Laurent2({(1, 1): 2, (1, -1): 2, (-1, 1): 2, (-1, -1): 2})
_PROD_EVEN = Laurent2({(0, 0): 2, (2, 0): 1, (-2, 0): 1})
_QUOT_EVEN = Laurent2({(0, 0): 2, (0, 2): 1, (0, -2): 1})
_MIXED_ODD = Laurent2({(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1})


def recursion_constant(parity_even: bool, ring: RingSpec = "generic") -> Poly:
    """Triangle-sum constant: the even case uses squared single-parameter
    terms, the odd case twice the mixed terms; both collapse to 8
    parabolically."""
    return _const(ring, _EVEN_SUM if parity_even else _ODD_SUM)


def product_constant(parity_even: bool, ring: RingSpec = "generic") -> Poly:
    """Constant for trace(W_a W_b) + trace of the mediant word."""
    return _const(ring, _PROD_EVEN if parity_even else _MIXED_ODD)


def quotient_constant(parity_even: bool, ring: RingSpec = "generic") -> Poly:
    """Constant for trace(W_a W_b^-1) + trace of the difference word."""
    return _const(ring, _QUOT_EVEN if parity_even else _MIXED_ODD)
