"""Ground-truth trace polynomials by explicit 2x2 matrix multiplication.

This module never touches the triangle recursion: it computes the trace
of the word matrix directly from the generator matrices, so it serves as
an independent oracle for everything the recursion engine produces.  It
shares no polynomial multiplication with the recursion either: the
generic ring steps packed integers letter by letter with shifts and adds,
not ``Poly`` products.  The one piece the two share is the slot layout
``rings.Slots``, through which the recursion's packed ``Laurent2``
products decode too; its tests check it by a round trip and the products
against a term-by-term double loop.

The generator matrices are upper/lower triangular with unit determinant;
their entries are polynomials in the trace variable whose coefficients
live in the chosen ring: exact bivariate Laurent ("generic"), plain
integers ("parabolic"), or complex doubles (numeric cone parameters).

The parabolic and numeric rings multiply ``Mat2`` values, 8 ``Poly``
products per letter.  The generic ring uses Kronecker substitution
(Schoenhage 1982; Harvey 2009).  Scaling each letter by its parameter
(alpha X, beta Y) and conjugating by diag(1, alpha), which keeps the
trace, turns every generator into a matrix of +-1 monomials in
A = alpha^2, B = beta^2 and T = alpha beta z:

    X -> [[A, 1], [0, 1]]    x -> [[1, -1], [0, A]]
    Y -> [[B, 0], [T, 1]]    y -> [[1, 0], [-T, B]]

Entry (r, c) of a product of n_x letters of X type and n_y of Y type is
alpha^(c - r - n_x) beta^(-n_y) times a polynomial of degree at most n_x
in A and n_y in B and T.  That box is a ``rings.Slots`` layout with
halved sheared exponents, in which T, A and B are left shifts by the
layout's strides, so a letter step is a few shifts and adds of four
ints.  That arithmetic is exact for any slot width; only decoding needs
every coefficient to fit its slot.  The majorant bounds them: the same
product of the sign-free patterns [[1, 1], [0, 1]] and [[1, 0], [1, 1]]
bounds the sum of the absolute coefficients of each entry, and sets the
slot width.

A generic word matrix keeps the four packed ints and decodes an entry
only when it is first read.  Its trace is one decode of the packed
a + d: both entries have the same offsets, so their packed ints add
slot by slot, and the majorant bounds the trace's coefficients through
a + d.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import FormalVertex
from .rings import Laurent2, Poly, Ring, RingSpec, Slots
from .slopes import Slope
from .words import Letter, Word, _check_pair, farey_word

__all__ = [
    "Mat2",
    "gen_matrix",
    "word_matrix",
    "farey_polynomial",
    "trace_product",
    "trace_quotient",
    "product_constant",
    "quotient_constant",
]

class Mat2:
    """Row-major 2x2 matrix with polynomial entries.

    Read the entries as ``.a`` to ``.d`` or by unpacking; ``==`` compares
    them.  A generic word matrix decodes its packed entries on read (see
    the module docstring).  Decoding is pure, so two threads that read an
    entry at once store equal values.
    """

    __slots__ = ("_entries", "_packed")

    def __init__(self, a: Poly, b: Poly, c: Poly, d: Poly):
        self._entries = [a, b, c, d]
        # (a, b, c, d, layout of a and d) of a packed matrix
        self._packed = None

    @classmethod
    def _decoded_on_read(cls, packed: tuple) -> "Mat2":
        """The matrix of the packed ints and layout (a, b, c, d, layout)."""
        m = cls.__new__(cls)
        m._entries, m._packed = [None] * 4, packed
        return m

    def _entry(self, i: int) -> Poly:
        e = self._entries[i]
        if e is None:
            layout = self._packed[4]
            layout = replace(layout, x0=layout.x0 + _ALPHA_SHIFTS[i])
            e = self._entries[i] = layout.unpack(self._packed[i])
        return e

    a = property(lambda self: self._entry(0))
    b = property(lambda self: self._entry(1))
    c = property(lambda self: self._entry(2))
    d = property(lambda self: self._entry(3))

    def __iter__(self):
        return map(self._entry, range(4))

    def __eq__(self, other) -> bool:
        if isinstance(other, Mat2):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return "Mat2({!r}, {!r}, {!r}, {!r})".format(*self)

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
        if self._packed is None:
            return self.a + self.d
        a, _, _, d, layout = self._packed
        return layout.unpack(a + d)

    @property
    def det(self) -> Poly:
        return self.a * self.d - self.b * self.c


# Entry (r, c) of a packed word matrix has its alpha exponents shifted by
# c - r from those of a and d (see the module docstring).
_ALPHA_SHIFTS = (0, 1, -1, 0)


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

    The generic ring steps four Kronecker-packed integers, decoded on read
    (see the module docstring).  The parabolic and numeric rings multiply
    ``Mat2`` values, building each distinct letter's matrix once per call.
    Either way the result equals the letter-by-letter ``Mat2`` product in
    the ring.
    """
    ring = Ring.parse(ring)
    if ring.name == "generic":
        return _packed_word_matrix(str(w))
    mats = {letter: gen_matrix(letter, ring) for letter in set(w.letters)}
    m = identity_matrix(ring)
    for letter in w.letters:
        m = m @ mats[letter]
    return m


def _packed_word_matrix(chars: str) -> Mat2:
    """The generic word matrix by Kronecker substitution, left packed (see ``Mat2``)."""
    n_x = chars.count("X") + chars.count("x")
    n_y = len(chars) - n_x
    layout = Slots(n_y + 1, n_x + 1, n_y + 1, -n_x, -n_y, 1, _slot_bytes(chars))
    t_shift, a_shift, b_shift = layout.strides
    a, b, c, d = 1, 0, 0, 1
    for ch in chars:
        if ch == "X":
            a, b, c, d = a << a_shift, a + b, c << a_shift, c + d
        elif ch == "x":
            b, d = (b << a_shift) - a, (d << a_shift) - c
        elif ch == "Y":
            a, c = (a << b_shift) + (b << t_shift), (c << b_shift) + (d << t_shift)
        else:
            a, b, c, d = a - (b << t_shift), b << b_shift, c - (d << t_shift), d << b_shift
    return Mat2._decoded_on_read((a, b, c, d, layout))


def _slot_bytes(chars: str) -> int:
    """Bytes per packed slot for the word ``chars``: the sign-free product
    bounds every coefficient of every entry and of the trace."""
    a, b, c, d = 1, 0, 0, 1
    for ch in chars:
        if ch in "Xx":
            b, d = a + b, c + d
        else:
            a, c = a + b, c + d
    return Slots.width(max(a + d, b, c))


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


def _const(ring: RingSpec, generic: Laurent2) -> Poly:
    return Ring.parse(ring).specialize(Poly([generic]))


_PROD_EVEN = Laurent2({(0, 0): 2, (2, 0): 1, (-2, 0): 1})
_QUOT_EVEN = Laurent2({(0, 0): 2, (0, 2): 1, (0, -2): 1})
_MIXED_ODD = Laurent2({(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1})


def product_constant(parity_even: bool, ring: RingSpec = "generic") -> Poly:
    """Constant for trace(W_a W_b) + trace of the mediant word."""
    return _const(ring, _PROD_EVEN if parity_even else _MIXED_ODD)


def quotient_constant(parity_even: bool, ring: RingSpec = "generic") -> Poly:
    """Constant for trace(W_a W_b^-1) + trace of the difference word."""
    return _const(ring, _QUOT_EVEN if parity_even else _MIXED_ODD)
