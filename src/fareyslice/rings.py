"""Exact coefficient arithmetic.

Two layers live here:

* ``Laurent2`` -- bivariate Laurent polynomials over Python's native
  arbitrary-precision integers, the generic coefficient domain.
* ``Poly`` -- dense univariate polynomials (ascending coefficients) over
  any coefficient type that supports ring arithmetic: int, complex, or
  ``Laurent2``.

Every value is immutable in practice (nothing mutates after construction)
and all operations are pure.  ``Poly`` multiplications are counted in a
module-level tally so benchmark code can report exact operation counts.

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
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import ZeroDivisor

__all__ = [
    "Laurent2",
    "Poly",
    "GeneratorParams",
    "Ring",
    "specialize_parabolic",
    "specialize_numeric",
    "eval_complex",
    "poly_sqrt_exact",
    "is_perfect_square",
    "poly_mul_count",
    "reset_poly_mul_count",
]

_POLY_MULS = 0


def poly_mul_count() -> int:
    return _POLY_MULS


def reset_poly_mul_count() -> None:
    global _POLY_MULS
    _POLY_MULS = 0


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
        if isinstance(other, (Laurent2, int)):
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

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([c])

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

    def constant(self, zero=0):
        return self.coeffs[0] if self.coeffs else zero

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
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            global _POLY_MULS
            _POLY_MULS += 1
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly()
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


DOUBLE_EXACT_BOUND = 2**53


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
    def is_parabolic(self) -> bool:
        return self.a == math.inf and self.b == math.inf

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

    This is the one place that parses a ring spec and the one map from
    generic ``Laurent2`` coefficients into the ring's scalars.  Equal specs
    give equal (hashable) values; the parabolic ring (int coefficients) and
    numeric ``GeneratorParams(inf, inf)`` (complex coefficients) differ.
    """

    name: str
    params: Optional[GeneratorParams] = None

    @classmethod
    def parse(cls, spec: "RingSpec") -> "Ring":
        """A Ring from "generic", "parabolic", GeneratorParams or a label."""
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
        raise ValueError(f"unknown ring {spec!r}")

    def coeff(self, x: Laurent2):
        """The value of a generic coefficient in this ring."""
        if self.params is not None:
            return x.evaluate(self.params.alpha, self.params.beta)
        return x if self.name == "generic" else x.at_one()

    @property
    def label(self) -> str:
        """The output label "generic", "parabolic" or "numeric(a,b)"."""
        return self.name if self.params is None else f"numeric({self.params.label()})"


# Anything Ring.parse accepts.  The names are forward references: typing
# caches every Union it builds, and a Union of the classes themselves would
# keep each imported copy of this module alive.
RingSpec = Union[str, "GeneratorParams", "Ring"]


def specialize_parabolic(p: Poly) -> Poly:
    """Set both generator parameters to 1 in a Laurent-coefficient polynomial."""
    ring = Ring.parse("parabolic")
    return Poly([ring.coeff(c) if isinstance(c, Laurent2) else c for c in p.coeffs])


def specialize_numeric(p: Poly, params: GeneratorParams) -> Poly:
    """Evaluate Laurent coefficients at the roots of unity given by params."""
    ring = Ring.parse(params)
    return Poly([ring.coeff(c) if isinstance(c, Laurent2) else complex(c) for c in p.coeffs])


def to_complex_coeffs(p: Poly) -> list[complex]:
    """Coefficients as complex doubles, warning when exactness is lost."""
    out = []
    lossy = False
    for c in p.coeffs:
        if isinstance(c, int) and abs(c) > DOUBLE_EXACT_BOUND:
            lossy = True
        out.append(complex(c))
    if lossy:
        warnings.warn(
            "coefficients exceed 2**53; double conversion is inexact",
            stacklevel=2,
        )
    return out


def eval_complex(p: Poly, z: complex) -> complex:
    """Horner evaluation after conversion of coefficients to doubles."""
    acc = 0j
    for c in reversed(to_complex_coeffs(p)):
        acc = acc * z + c
    return acc


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
