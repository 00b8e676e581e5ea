"""Exact coefficient arithmetic.

Two layers live here:

* ``Laurent2`` -- bivariate Laurent polynomials over Python's native
  arbitrary-precision integers, the generic coefficient domain.
* ``Poly`` -- dense univariate polynomials (ascending coefficients) over
  any coefficient type that supports ring arithmetic: int, complex, or
  ``Laurent2``.

Every value is immutable in practice (nothing mutates after construction)
and all operations are pure.  ``Poly`` multiplications are counted in a
module-level tally, never reset, whose deltas give benchmark code exact
operation counts.

A ``Poly`` product over ``Laurent2`` is one CPython big-int product by
Kronecker substitution (Schoenhage 1982; Harvey 2009), in the slot
layout ``Slots`` that ``oracle``'s generic word matrices use too; its
docstring describes the layout.  Factors with at most a recursion seed's
3 terms, and all int and complex products, keep the coefficient double
loop.

``_exact_evaluator`` gives P and P' of exact int or double coefficients
at double points, each rounded once from one big-int Horner pass.

``Laurent2`` invariant: a value stores no zero coefficient.  Its arithmetic
allocates only the result, and its fast paths (adding zero, multiplying
by the constant 1) return an operand itself, so results share term dicts
with their inputs.  ``.terms`` must therefore never be mutated; build a
new value instead.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import ZeroDivisor

__all__ = [
    "Laurent2",
    "Poly",
    "GeneratorParams",
    "Ring",
    "poly_sqrt_exact",
    "is_perfect_square",
    "poly_mul_count",
]

_POLY_MULS = 0


def poly_mul_count() -> int:
    return _POLY_MULS


class Laurent2:
    """Sum of c * u^i * v^j terms with integer c and integer i, j.

    The two formal variables are the upper-triangular and lower-triangular
    generator parameters.  Zero coefficients are never stored; plain ints
    mix freely with Laurent2 values in arithmetic.  The public constructor
    filters zeros out of its input; the arithmetic builds its results with
    ``_from_terms`` and keeps them zero-free itself.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, n: int) -> "Laurent2":
        return cls({(0, 0): n})

    @classmethod
    def term(cls, c: int, i: int, j: int) -> "Laurent2":
        return cls({(i, j): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Laurent2):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __neg__(self) -> "Laurent2":
        return _from_terms({k: -v for k, v in self.terms.items()})

    def _scaled(self, n: int) -> "Laurent2":
        if n == 1:
            return self
        if not n:
            return _from_terms({})
        return _from_terms({k: n * v for k, v in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, Laurent2):
            a, b = self.terms, other.terms
            if not b:
                return self
            if not a:
                return other
            if len(a) < len(b):
                a, b = b, a
            out = dict(a)
            get = out.get
            for k, v in b.items():
                w = get(k, 0) + v
                if w:
                    out[k] = w
                else:
                    del out[k]
            return _from_terms(out)
        if isinstance(other, int):
            if not other:
                return self
            out = dict(self.terms)
            w = out.get((0, 0), 0) + other
            if w:
                out[(0, 0)] = w
            else:
                del out[(0, 0)]
            return _from_terms(out)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Laurent2):
            b = other.terms
            if not b:
                return self
            out = dict(self.terms)
            get = out.get
            for k, v in b.items():
                w = get(k, 0) - v
                if w:
                    out[k] = w
                else:
                    del out[k]
            return _from_terms(out)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Laurent2):
            return self._scaled(other) if isinstance(other, int) else NotImplemented
        small, big = self, other
        if len(small.terms) > len(big.terms):
            small, big = big, small
        a, b = small.terms, big.terms
        if len(a) == 1:
            # A monomial factor: shift the keys, or scale by a constant.
            ((i1, j1), c1), = a.items()
            if not (i1 or j1):
                return big._scaled(c1)
            if c1 == 1:
                return _from_terms({(i1 + i2, j1 + j2): c2 for (i2, j2), c2 in b.items()})
            return _from_terms({(i1 + i2, j1 + j2): c1 * c2 for (i2, j2), c2 in b.items()})
        out: dict = {}
        get = out.get
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                k = (i1 + i2, j1 + j2)
                out[k] = get(k, 0) + c1 * c2
        return _from_terms({k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def at_one(self) -> int:
        """Value with both parameters set to 1 (the parabolic case)."""
        return sum(self.terms.values())

    def evaluate(self, alpha: complex, beta: complex) -> complex:
        return sum(c * alpha**i * beta**j for (i, j), c in self.terms.items())

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        return [(i, j, c) for (i, j), c in sorted(self.terms.items())]

    def __repr__(self) -> str:
        if not self.terms:
            return "Laurent2(0)"
        bits = [f"{c}*u^{i}*v^{j}" for i, j, c in self.sorted_terms()]
        return "Laurent2(" + " + ".join(bits) + ")"


def _from_terms(terms: dict) -> Laurent2:
    """A Laurent2 that wraps a dict holding no zero coefficient, uncopied."""
    out = object.__new__(Laurent2)
    out.terms = terms
    return out


class Poly:
    """Dense univariate polynomial, coefficients ascending in the variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(a)
        for i, c in enumerate(b[: len(a)]):
            out[i] = out[i] - c
        out.extend(-c for c in b[len(a) :])
        return Poly(out)

    def __mul__(self, other):
        """Product with a Poly, or scaling by anything else.

        When either factor has ``Laurent2`` coefficients and neither has
        at most a seed's 3 terms, the product is one big-int product by
        Kronecker substitution (see ``_packed_product``).  Every other
        product, including all int and complex ones, runs the double loop.
        Either way it counts once in ``poly_mul_count``.
        """
        if isinstance(other, Poly):
            global _POLY_MULS
            _POLY_MULS += 1
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly()
            if (Laurent2 in map(type, a) or Laurent2 in map(type, b)) and not (
                _few_terms(a) or _few_terms(b)
            ):
                return _packed_product(a, b)
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if not ca:
                    continue
                for j, cb in enumerate(b):
                    out[i + j] = out[i + j] + ca * cb
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, k) -> "Poly":
        return Poly([k * c for c in self.coeffs])

    def shift(self, n: int) -> "Poly":
        """Multiply by the n-th power of the variable."""
        if self.is_zero:
            return Poly()
        return Poly([0] * n + self.coeffs)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def multiplicity_at_zero(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has infinite multiplicity")
        m = 0
        while not self.coeffs[m]:
            m += 1
        return m

    def divmod_exact(self, divisor: "Poly") -> "Poly":
        """Exact polynomial long division; raises ZeroDivisor on remainder.

        Coefficient division must itself be exact (integer coefficients
        require divisibility at every step).
        """
        if divisor.is_zero:
            raise ZeroDivisor("division by the zero polynomial")
        rem = list(self.coeffs)
        lead = divisor.leading
        dd = divisor.degree
        out = [0] * max(0, len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = rem[k + dd]
            q = exact_div(c, lead)
            out[k] = q
            if q:
                for i, dc in enumerate(divisor.coeffs):
                    rem[k + i] = rem[k + i] - q * dc
        if any(rem):
            raise ZeroDivisor(f"{divisor} does not divide exactly")
        return Poly(out)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


# A factor with at most this many terms, as each recursion seed has, is
# multiplied by the double loop: packing it costs more than it saves.
_SEED_TERMS = 3


def _few_terms(coeffs: list) -> bool:
    """Whether ``coeffs`` hold at most ``_SEED_TERMS`` nonzero terms."""
    n = 0
    for c in coeffs:
        n += len(c.terms) if type(c) is Laurent2 else c != 0
        if n > _SEED_TERMS:
            return False
    return True


def _packed_product(a: list, b: list) -> "Poly":
    """The product of two ``Laurent2``-coefficient polynomials as one int product.

    Each factor packs in the ``Slots`` layout of the product's X and Y
    ranges at its own least sheared exponents, halved when all lie an even
    distance from those (as in every trace polynomial).  The product's
    offsets are the sums of the factors', so the big-int product of the
    packed factors is the packed product.  No coefficient of the product
    exceeds S M, the sum of the absolute coefficients of one factor times
    the largest of the other, which sets the slot width.
    """
    ta, tb = Slots.shear(a), Slots.shear(b)
    (_, xa, ya, ca), (_, xb, yb, cb) = ta, tb
    x0a, y0a, x0b, y0b = int(xa.min()), int(ya.min()), int(xb.min()), int(yb.min())
    xa, ya, xb, yb = xa - x0a, ya - y0a, xb - x0b, yb - y0b
    h = int(not (((xa | ya) & 1).any() or ((xb | yb) & 1).any()))
    nx, ny = (int(xa.max() + xb.max()) >> h) + 1, (int(ya.max() + yb.max()) >> h) + 1
    bound = min(sum(map(abs, ca)) * max(map(abs, cb)), sum(map(abs, cb)) * max(map(abs, ca)))
    product = Slots(len(a) + len(b) - 1, nx, ny, x0a + x0b, y0a + y0b, h, Slots.width(bound))
    packed_a = replace(product, length=len(a), x0=x0a, y0=y0a).pack(ta)
    return product.unpack(packed_a * replace(product, length=len(b), x0=x0b, y0=y0b).pack(tb))


def _over_power_of_two(values) -> tuple[list[int], int]:
    """Ints n_i and e with values[i] = n_i / 2^e exactly, for ints and doubles."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den.bit_length() - 1


def _rounded(num: int, shift: int) -> float:
    """num / 2^shift, correctly rounded (int true division); past double
    range, an infinity of num's sign."""
    try:
        return num / (1 << shift)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _exact_evaluator(coeffs: list) -> Callable:
    """Evaluator of P and P' at double points, each rounded once.

    ``coeffs`` ascending, as Python ints or anything ``complex`` accepts.
    Ints are exact and every double is an int over a power of two.  Over
    one power of two 2^e for the coefficients and one 2^f for each point
    w = (x + iy) / 2^f, one Horner pass over Python ints carries the
    numerators of P and P' exactly: after j steps they lie over 2^(f j)
    and 2^(f (j - 1)).  A value past double range comes back infinite.
    """
    cs = [c if isinstance(c, int) else complex(c) for c in coeffs]
    nums, e = _over_power_of_two([part for c in cs for part in (c.real, c.imag)])
    real, imag = nums[0::2], nums[1::2]
    n = len(coeffs) - 1

    def evaluate(z):
        ps, dps = [], []
        for w in z.tolist():
            (x, y), f = _over_power_of_two((w.real, w.imag))
            pr, pi, dr, di = real[n], imag[n], 0, 0
            for j in range(1, n + 1):
                dr, di = dr * x - di * y + pr, dr * y + di * x + pi
                pr, pi = (
                    pr * x - pi * y + (real[n - j] << f * j),
                    pr * y + pi * x + (imag[n - j] << f * j),
                )
            ps.append(complex(_rounded(pr, e + f * n), _rounded(pi, e + f * n)))
            dps.append(complex(_rounded(dr, e + f * (n - 1)), _rounded(di, e + f * (n - 1))))
        return np.array(ps), np.array(dps)

    return evaluate


@dataclass(frozen=True)
class Slots:
    """The Kronecker slot layout of a ``Laurent2``-coefficient polynomial in one int.

    A term c z^k u^i v^j, with k < ``length``, is sheared to i - k and
    j - k, less the offsets ``x0`` and ``y0`` and halved when ``halve`` is
    1, giving x < ``nx`` and y < ``ny``.  It owns slot (k nx + x) ny + y,
    k-major, and the packed int is the signed sum of c 2^(8 size slot)
    over the terms: packed ints add slot by slot, a left shift by one of
    ``strides`` multiplies by z u v, u^(1 + halve) or v^(1 + halve), and a
    product of packed ints is packed in the layout with the summed ranges
    and offsets.  Decoding is exact while every slot holds an integer in
    [-2^(8 size - 1), 2^(8 size - 1)), as ``width`` ensures for a bound on
    the absolute coefficients.  The sign bias, 2^(8 size - 1) in every
    slot, makes each slot of a biased int a nonnegative number below
    2^(8 size), so its bytes hold the slots one by one.  Package-internal,
    so not exported.
    """

    length: int
    nx: int
    ny: int
    x0: int
    y0: int
    halve: int
    size: int

    @staticmethod
    def width(bound: int) -> int:
        """Bytes per slot for |c| <= bound: bit length and sign bit, in whole bytes."""
        return (bound.bit_length() + 8) // 8

    @staticmethod
    def shear(coeffs: list) -> tuple:
        """Every term c z^k u^i v^j as arrays k, i - k, j - k and a list of c."""
        ks, i_s, j_s, cs = [], [], [], []
        for k, c in enumerate(coeffs):
            if type(c) is not Laurent2:
                c = Laurent2.const(c)
            if c.terms:
                i, j = zip(*c.terms)
                ks.extend([k] * len(i))
                i_s.extend(i)
                j_s.extend(j)
                cs.extend(c.terms.values())
        k = np.array(ks, dtype=np.int64)
        return k, np.array(i_s, dtype=np.int64) - k, np.array(j_s, dtype=np.int64) - k, cs

    @property
    def strides(self) -> tuple[int, int, int]:
        """The bit shifts that multiply by z u v, u^(1 + halve) and v^(1 + halve)."""
        bits = 8 * self.size
        return bits * self.nx * self.ny, bits * self.ny, bits

    def _bias(self) -> bytes:
        """The bytes of the sign bias: every slot holding zero."""
        return (bytes(self.size - 1) + b"\x80") * (self.length * self.nx * self.ny)

    def pack(self, terms: tuple) -> int:
        """The sheared ``terms`` (see ``shear``) as one int."""
        k, x, y, values = terms
        x, y = (x - self.x0) >> self.halve, (y - self.y0) >> self.halve
        size, half, bias = self.size, 1 << (8 * self.size - 1), self._bias()
        buf = bytearray(bias)
        for w, c in zip((((k * self.nx + x) * self.ny + y) * size).tolist(), values):
            buf[w : w + size] = (c + half).to_bytes(size, "little")
        return int.from_bytes(buf, "little") - int.from_bytes(bias, "little")

    def unpack(self, v: int) -> "Poly":
        """The ``length`` coefficients packed in ``v``.

        Slots of up to 8 bytes decode through numpy, wider ones byte by byte.
        """
        size, half, bias = self.size, 1 << (8 * self.size - 1), self._bias()
        raw = (v + int.from_bytes(bias, "little")).to_bytes(len(bias), "little")
        rows = np.frombuffer(raw, np.uint8).reshape(-1, size)
        if size <= 8:
            # Each slot, zero-extended to 8 bytes, less the bias; the
            # difference wraps in uint64 and reads back as int64.
            wide = np.zeros((len(rows), 8), np.uint8)
            wide[:, :size] = rows
            coeffs = (wide.view("<u8")[:, 0] - np.uint64(half)).view(np.int64)
            where = np.flatnonzero(coeffs)
            values = coeffs[where].tolist()
        else:
            where = np.flatnonzero(rows[:, :-1].any(axis=1) | (rows[:, -1] != 0x80))
            values = [int.from_bytes(rows[t].tobytes(), "little") - half for t in where.tolist()]
        block = self.nx * self.ny
        k, rest = np.divmod(where, block)
        x, y = np.divmod(rest, self.ny)
        i, j = (x << self.halve) + k + self.x0, (y << self.halve) + k + self.y0
        keys = list(zip(i.tolist(), j.tolist()))
        # Slots run k-major, so each power of z is one run of them.
        ends = np.searchsorted(where, block * np.arange(1, self.length + 1)).tolist()
        runs = zip([0] + ends[:-1], ends)
        return Poly([_from_terms(dict(zip(keys[lo:hi], values[lo:hi]))) for lo, hi in runs])


def exact_div(x, d):
    """Divide x by d exactly, across the coefficient types used here."""
    if isinstance(d, int):
        if d == 0:
            raise ZeroDivisor("division by zero")
        if isinstance(x, int):
            q, r = divmod(x, d)
            if r:
                raise ZeroDivisor(f"{d} does not divide {x}")
            return q
        if isinstance(x, Poly):
            return Poly([exact_div(c, d) for c in x.coeffs])
        return x / d
    if isinstance(d, (float, complex)):
        return x / d
    if isinstance(d, Poly):
        if isinstance(x, Poly):
            return x.divmod_exact(d)
        raise ZeroDivisor("cannot divide a scalar by a polynomial")
    raise ZeroDivisor(f"no exact division by {d!r}")


@dataclass(frozen=True)
class GeneratorParams:
    """Cone orders (a, b) of the two generators; math.inf means parabolic.

    The numeric specialisation evaluates the upper parameter at
    exp(i*pi/a) and the lower at exp(i*pi/b), with infinity mapping to 1.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        for v in (self.a, self.b):
            if v != math.inf and (int(v) != v or v < 2):
                raise ValueError("orders must be integers >= 2 or inf")

    @property
    def alpha(self) -> complex:
        return 1.0 + 0.0j if self.a == math.inf else cmath.exp(1j * math.pi / self.a)

    @property
    def beta(self) -> complex:
        return 1.0 + 0.0j if self.b == math.inf else cmath.exp(1j * math.pi / self.b)

    def label(self) -> str:
        fa = "inf" if self.a == math.inf else str(int(self.a))
        fb = "inf" if self.b == math.inf else str(int(self.b))
        return f"{fa},{fb}"


@dataclass(frozen=True)
class Ring:
    """The coefficient ring of a computation: generic, parabolic or numeric.

    This is the one place that parses a ring spec (a command line's
    ``--ring`` and a serialised polynomial's ``ring`` too) and the one map
    out of the generic ring: ``coeff`` takes a generic coefficient to the
    ring's scalar, and ``specialize`` a generic polynomial to the ring's.
    Equal specs give equal (hashable) values; the parabolic ring (int
    coefficients) and numeric ``GeneratorParams(inf, inf)`` (complex
    coefficients) differ, in ``pleating`` as everywhere else.
    """

    name: str
    params: Optional[GeneratorParams] = None

    @classmethod
    def parse(cls, spec: "RingSpec") -> "Ring":
        """A Ring from a Ring, GeneratorParams or a label: "generic",
        "parabolic" or "numeric(a,b)", each cone order an integer >= 2 or
        inf (or oo).  Anything else raises ``ValueError``."""
        if isinstance(spec, Ring):
            return spec
        if isinstance(spec, GeneratorParams):
            return cls("numeric", spec)
        if spec in ("generic", "parabolic"):
            return cls(spec)
        m = isinstance(spec, str) and re.fullmatch(r"numeric\((inf|oo|\d+),(inf|oo|\d+)\)", spec)
        if m:
            a, b = (math.inf if t in ("inf", "oo") else int(t) for t in m.groups())
            return cls("numeric", GeneratorParams(a, b))
        raise ValueError(f"unknown ring {spec!r}: expected 'parabolic', 'generic' or"
                         " 'numeric(a,b)' with cone orders a, b integers >= 2 or inf")

    def coeff(self, x: Laurent2 | int):
        """The value of a generic coefficient in this ring.  A plain int is
        a constant: it stays, as a complex in a numeric ring."""
        if isinstance(x, int):
            return x if self.params is None else complex(x)
        if self.params is not None:
            return x.evaluate(self.params.alpha, self.params.beta)
        return x if self.name == "generic" else x.at_one()

    def specialize(self, p: Poly) -> Poly:
        """The generic polynomial ``p`` in this ring, coefficient by
        coefficient through ``coeff``."""
        return Poly(map(self.coeff, p.coeffs))

    @property
    def label(self) -> str:
        """The output label "generic", "parabolic" or "numeric(a,b)"."""
        return self.name if self.params is None else f"numeric({self.params.label()})"


# Anything Ring.parse accepts.  The names are forward references: typing
# caches every Union it builds, and a Union of the classes themselves would
# keep each imported copy of this module alive.
RingSpec = Union[str, "GeneratorParams", "Ring"]


def is_perfect_square(n: int) -> Optional[int]:
    """The integer square root of n if n is a perfect square, else None."""
    if n < 0:
        raise ValueError("negative integers are never squares here")
    r = math.isqrt(n)
    return r if r * r == n else None


def poly_sqrt_exact(p: Poly) -> Optional[Poly]:
    """An integer polynomial R with R*R == p and positive leading coefficient.

    Works top-down: the leading coefficient must be a perfect square and
    every further coefficient must come out an exact integer.  Returns
    None when p is not a square in the integer polynomial ring.
    """
    if p.is_zero:
        return Poly()
    if p.degree % 2:
        return None
    h = p.degree // 2
    lead = p.coeffs[-1]
    if not isinstance(lead, int) or lead < 0:
        return None
    top = is_perfect_square(lead)
    if top is None:
        return None
    r = [0] * (h + 1)
    r[h] = top
    for i in range(h - 1, -1, -1):
        acc = 0
        for a in range(i + 1, h):
            b = h + i - a
            if i < b <= h:
                acc += r[a] * r[b]
        target = p.coeffs[h + i] if h + i <= p.degree else 0
        num = target - acc
        den = 2 * r[h]
        if num % den:
            return None
        r[i] = num // den
    cand = Poly(r)
    return cand if cand * cand == p else None
