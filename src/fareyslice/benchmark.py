"""Recursion-vs-matrix benchmark with exact operation counts.

The point of the triangle recursion is that it replaces a long chain of
2x2 polynomial matrix products (8 polynomial multiplications each) by a
single polynomial multiplication per Farey triangle.  This module counts
both sides exactly (every ``Poly * Poly`` is tallied) and reports wall
times alongside; the counts are deterministic, the times are not.

Timing runs in the parabolic ring: the generic Laurent coefficients blow
up combinatorially at the benchmark sizes and the pictures the speedup
matters for are parabolic or numeric anyway.  Two checks cover different
code:

- a small generic-ring gate, ``route_mismatches`` on small slopes, runs
  first and compares the generic recursion with the generic oracle, as
  ``fareyslice verify`` does; that oracle multiplies Kronecker-packed
  integers, not the ``Mat2`` products that are timed;
- the two timed parabolic results, the recursion's polynomial and the
  trace of the ``Mat2`` word product, must be equal at the target.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Iterable

from . import oracle
from .errors import RouteMismatch
from .recursion import FareyPolynomialEngine, get_engine
from .rings import poly_mul_count
from .slopes import CFExpansion, Slope, convergents, semiconvergent_path
from .words import farey_word

__all__ = ["BenchReport", "route_mismatches", "run_benchmark"]

# 1/golden ratio: its n-th convergent is F(n - 1)/F(n), 377/610 at n = 15.
_GOLDEN = CFExpansion((0, 1), period=1)


@dataclass
class BenchReport:
    path: str
    size: int
    target: Slope
    recursion_mults: int
    oracle_mults: int
    recursion_seconds: float
    oracle_seconds: float
    gate_checked: int

    @property
    def mult_ratio(self) -> float:
        return self.oracle_mults / max(1, self.recursion_mults)

    @property
    def speedup(self) -> float:
        return self.oracle_seconds / max(1e-12, self.recursion_seconds)

    def payload(self) -> dict:
        return {**asdict(self), "target": str(self.target),
                "mult_ratio": self.mult_ratio, "speedup": self.speedup}


def route_mismatches(slopes: Iterable[Slope]) -> list[Slope]:
    """The slopes, in order, at which the generic triangle recursion (the
    shared engine) differs from the generic matrix oracle."""
    engine = get_engine("generic")
    return [s for s in slopes if engine.polynomial(s) != oracle.farey_polynomial(s, "generic")]


def _targets(path_kind: str, size: int) -> Slope:
    if size < 1:
        raise ValueError(f"benchmark size must be >= 1, got {size}")
    if path_kind == "left":
        return Slope(1, size)
    if path_kind == "fibonacci":
        return convergents(_GOLDEN, size)[-1]
    raise ValueError("path kind must be 'left' or 'fibonacci'")


def _gate(path_kind: str) -> int:
    """Exact generic-ring equality of both methods on small slopes."""
    if path_kind == "left":
        slopes = [Slope(1, q) for q in range(1, 9)]
    else:
        slopes = semiconvergent_path(_GOLDEN, 6)
    bad = route_mismatches(slopes)
    if bad:
        raise RouteMismatch(f"oracle and recursion disagree at {bad[0]}")
    return len(slopes)


def run_benchmark(path_kind: str, size: int) -> BenchReport:
    target = _targets(path_kind, size)
    gate_checked = _gate(path_kind)

    # Deltas of the process-wide count: callers may be counting around us.
    engine = FareyPolynomialEngine("parabolic")
    word = farey_word(target)
    m0 = poly_mul_count()
    t0 = time.perf_counter()
    via_recursion = engine.polynomial(target)
    rec_seconds = time.perf_counter() - t0
    m1 = poly_mul_count()

    t0 = time.perf_counter()
    via_matrices = oracle.word_matrix(word, "parabolic").trace
    orc_seconds = time.perf_counter() - t0
    rec_mults, orc_mults = m1 - m0, poly_mul_count() - m1

    if via_matrices != via_recursion:
        raise RouteMismatch(f"methods disagree at {target}")

    return BenchReport(
        path=path_kind,
        size=size,
        target=target,
        recursion_mults=rec_mults,
        oracle_mults=orc_mults,
        recursion_seconds=rec_seconds,
        oracle_seconds=orc_seconds,
        gate_checked=gate_checked,
    )
