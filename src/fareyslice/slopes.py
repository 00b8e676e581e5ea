"""Exact rational slopes and arithmetic on the Farey graph.

The working domain is the closed interval [0, 1] together with the formal
vertex 1/0, which plays the role of the point at infinity at the top of
the Stern-Brocot tree.  All values are immutable and every operation here
is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from itertools import islice
from typing import Iterator

from .errors import NoParents, NotNeighbours, OutOfDomain

__all__ = [
    "Slope",
    "CFExpansion",
    "is_neighbor",
    "mediant",
    "ominus",
    "parents",
    "continued_fraction",
    "farey_expansion",
    "convergents",
    "semiconvergent_path",
    "boundary_sequence",
    "enumerate_farey",
]


@total_ordering
@dataclass(frozen=True)
class Slope:
    """A reduced fraction p/q in [0, 1], or the formal vertex 1/0.

    Construction normalises signs, reduces to lowest terms, and rejects
    anything outside the working domain.  1/0 compares greater than every
    finite slope.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        if p == 0 and q == 0:
            raise OutOfDomain("0/0 is not a slope")
        g = math.gcd(p, q)
        p //= g
        q //= g
        if p < 0 or (q > 0 and p > q):
            raise OutOfDomain(f"slope {p}/{q} lies outside [0,1] and 1/0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    @classmethod
    def parse(cls, text: str) -> "Slope":
        num, _, den = text.partition("/")
        if not den:
            raise ValueError(f"slope must look like 'p/q', got {text!r}")
        return cls(int(num), int(den))

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __lt__(self, other: "Slope") -> bool:
        return self.p * other.q < other.p * self.q


ZERO = Slope(0, 1)
ONE = Slope(1, 1)
INFINITY = Slope(1, 0)


def is_neighbor(a: Slope, b: Slope) -> bool:
    """True iff a and b span an edge of the Farey graph (|ps - qr| = 1)."""
    return abs(a.p * b.q - a.q * b.p) == 1


def _require_neighbors(a: Slope, b: Slope) -> None:
    if not is_neighbor(a, b):
        raise NotNeighbours(f"{a} and {b} are not Farey neighbours")


def mediant(a: Slope, b: Slope) -> Slope:
    """Farey addition (p+r)/(q+s); defined only for neighbour pairs."""
    _require_neighbors(a, b)
    return Slope(a.p + b.p, a.q + b.q)


def ominus(a: Slope, b: Slope) -> Slope:
    """Farey subtraction (p-r)/(q-s), normalised to the canonical vertex.

    Signs normalise so both components are non-negative, which makes the
    result symmetric in (a, b): it is the third vertex of the Farey
    triangle spanned by a and b.  (Mixed-sign differences only occur for
    pairs involving 0/1 and 1/0, whose third vertex is 1/1.)
    """
    _require_neighbors(a, b)
    return Slope(abs(a.p - b.p), abs(a.q - b.q))


def _euclid_terms(s: Slope) -> list[int]:
    # Plain Euclidean expansion; last term >= 2 unless there is only one.
    a, b = s.p, s.q
    terms = []
    while b:
        terms.append(a // b)
        a, b = b, a % b
    return terms


def _odd_tail(terms: list[int]) -> list[int]:
    # Convert [.., a_N] to the companion form [.., a_N - 1, 1].
    return terms[:-1] + [terms[-1] - 1, 1]


def _cf_pair(terms: list[int]) -> tuple[int, int]:
    # Evaluate a continued fraction to a raw (p, q) pair.  The empty
    # expansion is the formal vertex 1/0, which seeds the recurrence.
    ph, pk, h, k = 0, 1, 1, 0
    for a in terms:
        ph, pk, h, k = h, k, a * h + ph, a * k + pk
    return h, k


@dataclass(frozen=True)
class CFExpansion:
    """A simple continued fraction, optionally with a repeating tail.

    ``period`` trailing terms repeat forever when nonzero, which covers the
    eventually-periodic expansions of quadratic irrationals.  All terms
    after the first must be >= 1.
    """

    terms: tuple[int, ...]
    period: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(int(t) for t in self.terms))
        if not self.terms:
            raise ValueError("continued fraction needs at least one term")
        if any(t < 1 for t in self.terms[1:]):
            raise ValueError("terms after the first must be >= 1")
        if not 0 <= self.period <= len(self.terms):
            raise ValueError("period must index a trailing block")
        if self.period and any(t < 1 for t in self.terms[-self.period:]):
            raise ValueError("a repeating block must have terms >= 1")

    @property
    def is_finite(self) -> bool:
        return self.period == 0

    def __iter__(self) -> Iterator[int]:
        yield from self.terms
        if self.period:
            block = self.terms[-self.period:]
            while True:
                yield from block

    def evaluate(self) -> Slope:
        if not self.is_finite:
            raise ValueError("cannot evaluate a periodic expansion exactly")
        return Slope(*_cf_pair(list(self.terms)))


def continued_fraction(s: Slope) -> tuple[CFExpansion, CFExpansion]:
    """Both canonical expansions of a finite slope.

    Returns ``(odd_tail, compact)`` where the first form ends in 1 and the
    second is one term shorter; both evaluate back to ``s``.  For 0/1 the
    odd-tail form starts with -1, the only way to end in 1.
    """
    if s.is_infinite:
        raise OutOfDomain("1/0 has no continued fraction expansion")
    compact = _euclid_terms(s)
    return CFExpansion(tuple(_odd_tail(compact))), CFExpansion(tuple(compact))


def farey_expansion(s: Slope) -> tuple[Slope, Slope]:
    """The two truncations of the odd-tail expansion of ``s``.

    They are Farey neighbours and their mediant is ``s``; as a set this
    equals ``parents(s)``, but the order here follows the truncation
    lengths (one term dropped, then two).
    """
    if s in (ZERO, INFINITY):
        raise NoParents(f"{s} has no parent triangle")
    odd = _odd_tail(_euclid_terms(s))
    first = Slope(*_cf_pair(odd[:-1]))
    second = Slope(*_cf_pair(odd[:-2]))
    return first, second


def parents(s: Slope) -> tuple[Slope, Slope]:
    """The unique neighbour pair (smaller, larger) whose mediant is ``s``."""
    lo, hi = farey_expansion(s)
    if hi < lo:
        lo, hi = hi, lo
    return lo, hi


def convergents(cf: CFExpansion, n: int) -> list[Slope]:
    """The first ``n`` convergents of ``cf``.

    Consecutive convergents are always Farey neighbours, alternating around
    the limit value.
    """
    out: list[Slope] = []
    ph, pk, h, k = 0, 1, 1, 0
    for a in islice(iter(cf), n):
        ph, pk, h, k = h, k, a * h + ph, a * k + pk
        out.append(Slope(h, k))
    return out


def _mediant_walk(cf: CFExpansion) -> Iterator[tuple[Slope, bool]]:
    # Stern-Brocot descent: each continued-fraction term is a run of
    # mediant steps against one fixed endpoint.  The flag marks the last
    # step of each run, i.e. a true convergent.
    lo, hi = ZERO, INFINITY
    lo_side = False
    for a in cf:
        for j in range(a):
            m = Slope(lo.p + hi.p, lo.q + hi.q)
            yield m, j == a - 1
            if lo_side:
                hi = m
            else:
                lo = m
        lo_side = not lo_side


def semiconvergent_path(cf: CFExpansion, n: int) -> list[Slope]:
    """First ``n`` slopes of the unit-mediant walk towards the value of ``cf``.

    Every element is the mediant of the previous element and the currently
    active convergent, so consecutive elements are neighbours and the
    convergents appear as a subsequence.
    """
    return [s for s, _ in islice(_mediant_walk(cf), n)]


def boundary_sequence(alpha: Slope, k: int) -> Slope:
    """The k-th slope of the two mediant fans spread around ``alpha``.

    Index 0 is the larger parent, -1 the smaller one; positive (negative)
    indices iterate mediants with ``alpha`` down the right (left) fan.
    """
    left, right = parents(alpha)
    if k == -1:
        return left
    if k == 0:
        return right
    cur, steps = (right, k) if k > 0 else (left, -k - 1)
    for _ in range(steps):
        try:
            cur = Slope(cur.p + alpha.p, cur.q + alpha.q)
        except OutOfDomain as exc:
            raise OutOfDomain(
                f"fan around {alpha} leaves [0,1] at index {k}"
            ) from exc
    return cur


def enumerate_farey(q_max: int) -> list[Slope]:
    """All slopes in [0, 1] with denominator <= q_max, ordered by (q, p)."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    out = []
    for q in range(1, q_max + 1):
        for p in range(q + 1):
            if math.gcd(p, q) == 1:
                out.append(Slope(p, q))
    return out
