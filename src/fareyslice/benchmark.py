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

- a small generic-ring gate runs first and compares the generic
  recursion with the generic oracle on small slopes; that oracle
  multiplies Kronecker-packed integers, not the ``Mat2`` products that
  are timed;
- the two timed parabolic results, the recursion's polynomial and the
  trace of the ``Mat2`` word product, must be equal at the target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import oracle
from .errors import RouteMismatch
from .recursion import FareyPolynomialEngine
from .rings import poly_mul_count
from .slopes import CFExpansion, Slope, semiconvergent_path
from .words import farey_word

__all__ = ["BenchReport", "run_benchmark", "fibonacci"]


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@dataclass
class BenchReport:
    path_kind: str
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
        return {
            "path": self.path_kind,
            "size": self.size,
            "target": str(self.target),
            "recursion_mults": self.recursion_mults,
            "oracle_mults": self.oracle_mults,
            "mult_ratio": self.mult_ratio,
            "recursion_seconds": self.recursion_seconds,
            "oracle_seconds": self.oracle_seconds,
            "speedup": self.speedup,
            "gate_checked": self.gate_checked,
        }


def _targets(path_kind: str, size: int) -> Slope:
    if size < 1:
        raise ValueError(f"benchmark size must be >= 1, got {size}")
    if path_kind == "left":
        return Slope(1, size)
    if path_kind == "fibonacci":
        return Slope(fibonacci(size - 1), fibonacci(size))
    raise ValueError("path kind must be 'left' or 'fibonacci'")


def _gate(path_kind: str) -> int:
    """Exact generic-ring equality of both methods on small slopes."""
    limit_q = 8
    engine = FareyPolynomialEngine("generic")
    checked = 0
    if path_kind == "left":
        slopes = [Slope(1, q) for q in range(1, limit_q + 1)]
    else:
        golden = CFExpansion((0, 1), period=1)
        slopes = [s for s in semiconvergent_path(golden, 6)]
    for s in slopes:
        if engine.polynomial(s) != oracle.farey_polynomial(s, "generic"):
            raise RouteMismatch(f"oracle and recursion disagree at {s}")
        checked += 1
    return checked


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
        path_kind=path_kind,
        size=size,
        target=target,
        recursion_mults=rec_mults,
        oracle_mults=orc_mults,
        recursion_seconds=rec_seconds,
        oracle_seconds=orc_seconds,
        gate_checked=gate_checked,
    )
