"""The benchmark's workloads: seeded inputs, one pass each, output checks.

A pass computes a workload's complete output once, from a freshly
imported library (so every pass starts with empty polynomial caches,
as a new process would), checks every item, and reports per-item
latencies and deterministic counters.  Only public functions of
``slopes``, ``words``, ``rings``, ``oracle``, ``recursion``, ``pleating``
and ``serialize`` are called; layer times come from spans opened around
those calls here, never from inside the library.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

LAYERS = ("slopes", "words", "rings", "oracle", "recursion", "pleating", "serialize", "errors")

# Criterion-11 tolerances (tests/test_acceptance.py).
RESIDUAL_TOL = 1e-8
CLOSURE_TOL = 1e-8
VIETA_TOL = 1e-8

# poly-fibonacci's independent check: values of the trace polynomial at a
# few integers, against the trace of the product of the Farey word's
# integer matrices, all modulo a Mersenne prime.
MODULUS = 2**61 - 1
SEED0_POINTS = (-3, -1, 2, 5)


def library() -> SimpleNamespace:
    """The library's modules, as imported now."""
    return SimpleNamespace(**{m: importlib.import_module("fareyslice." + m) for m in LAYERS})


def load_library() -> SimpleNamespace:
    """Import the library afresh, dropping every module of an earlier import."""
    for name in [n for n in sys.modules if n == "fareyslice" or n.startswith("fareyslice.")]:
        del sys.modules[name]
    return library()


@dataclass
class PassResult:
    wall_s: float
    # Latency of each item that succeeded, by item id.
    item_s: dict[str, float]
    attempted: int
    # (item id, what failed); an item may fail more than one check.
    failures: list[tuple[str, str]]
    # Counts that must repeat exactly in every pass of a run.
    counters: dict[str, int]
    # Per-layer values other than times, reported by the traced run.
    stats: dict[str, float] = field(default_factory=dict)


class Counts:
    """Operation counts around one layer's calls, from rings.poly_mul_count."""

    def __init__(self, lib: SimpleNamespace):
        self.lib = lib
        self.muls: dict[str, int] = {}

    def call(self, tr, name: str, fn: Callable, *args):
        m0 = self.lib.rings.poly_mul_count()
        with tr.span(name):
            out = fn(*args)
        self.muls[name] = self.muls.get(name, 0) + self.lib.rings.poly_mul_count() - m0
        return out


def coeff_stats(polys) -> dict[str, float]:
    """Largest integer coefficient in bits and largest Laurent coefficient
    in terms, over the given polynomials (0 where the ring has neither)."""
    bits = terms = 0
    for poly in polys:
        for c in poly.coeffs:
            if isinstance(c, int):
                bits = max(bits, abs(c).bit_length())
            elif hasattr(c, "terms"):
                terms = max(terms, len(c.terms))
                bits = max([bits] + [abs(v).bit_length() for v in c.terms.values()])
    return {"rings.max_coeff_bits": bits, "rings.laurent_terms_max": terms}


# -- inputs ---------------------------------------------------------------


def slice_slopes(lib, seed: int, q_max: int = 40) -> list:
    """Every slope with q <= q_max; seed 0 keeps the library's (q, p)
    order, other seeds permute the visit order."""
    slopes = lib.slopes.enumerate_farey(q_max)
    if seed:
        random.Random(seed).shuffle(slopes)
    return slopes


def fibonacci_input(lib, seed: int):
    """(slope, evaluation points) for poly-fibonacci.

    Seed 0 is 1597/2584, the Fibonacci continued fraction [0; 1, 1, ...].
    Other seeds draw one of the two paths with partial quotients in
    {1, 2} and denominator 2584 ([0; 1, 1, ...] and [0; 2, 1, 1, ...],
    mirror images with equal cost) and fresh evaluation points.  Wider
    denominator bands are not used: at +-12% around 2584 the cost of such
    paths ranges over 0.6x-1.9x, which would swamp run-to-run spread.
    """
    if not seed:
        return lib.slopes.Slope(1597, 2584), SEED0_POINTS
    rng = random.Random(seed)
    p = rng.choice((1597, 987))
    points = tuple(rng.sample(range(-40, 41), 4))
    return lib.slopes.Slope(p, 2584), points


# -- checks ---------------------------------------------------------------


def root_set_errors(rs, s, coeffs, forward: bool) -> tuple[list[str], float, float]:
    """Criterion-11 properties of one root set.

    Returns (problems, relative Vieta error, conjugation gap).  With
    ``forward`` False only the backward properties are required (count,
    residual, convergence); the forward ones are still measured.
    """
    problems = []
    q = s.q
    if len(rs.roots) != q:
        problems.append(f"{len(rs.roots)} roots, want {q}")
    if rs.residuals and max(rs.residuals) >= RESIDUAL_TOL:
        problems.append(f"residual {max(rs.residuals):.3g}")
    if not rs.converged:
        problems.append("not converged")
    z = np.array(rs.roots, dtype=complex)
    gap = float(np.max(np.min(np.abs(np.conj(z)[:, None] - z[None, :]), axis=1))) if len(z) else 0.0
    vieta = 0.0
    if q >= 2:
        want = -coeffs[q - 1] / coeffs[q]
        vieta = abs(sum(rs.roots) - want) / max(1.0, abs(want))
    if forward and gap >= CLOSURE_TOL:
        problems.append(f"conjugation gap {gap:.3g}")
    if forward and vieta > VIETA_TOL:
        problems.append(f"Vieta error {vieta:.3g}")
    return problems, vieta, gap


def csv_errors(text: str, root_sets) -> list[str]:
    lines = text.splitlines()
    want = 1 + sum(len(rs.roots) for rs in root_sets)
    if lines[0] != "re,im,p,q,residual" or len(lines) != want:
        return [f"roots_csv: {len(lines)} lines, want {want}"]
    return []


def word_trace_mod(word, z: int) -> int:
    """Trace of the Farey word's integer matrices at z, modulo MODULUS.

    The parabolic generators are X = [[1, 1], [0, 1]] and
    Y = [[1, 0], [z, 1]]; lower-case letters are their inverses.
    """
    a, b, c, d = 1, 0, 0, 1
    for letter in word.letters:
        e = letter.exponent
        if letter.generator == "X":
            b = (a * e + b) % MODULUS
            d = (c * e + d) % MODULUS
        else:
            a = (a + b * e * z) % MODULUS
            c = (c + d * e * z) % MODULUS
    return (a + d) % MODULUS


def poly_mod(coeffs, z: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * z + c) % MODULUS
    return acc


# -- passes ---------------------------------------------------------------


def slice_pass(lib, slopes: list, cone: Optional[tuple], tr) -> PassResult:
    """cusp_candidates for every slope, then roots_csv.

    Traced passes first call get_engine(ring).polynomial(s) (the recursion
    span), so cusp_candidates (the pleating span) finds a warm cache.
    """
    params = lib.rings.GeneratorParams(*cone) if cone else None
    ring = params if cone else "parabolic"
    counts = Counts(lib)
    item_s, failures, root_sets = {}, [], []
    overflows = unconverged = 0
    max_residual = max_vieta = max_gap = 0.0
    m0 = lib.rings.poly_mul_count()
    t0 = time.perf_counter()
    for s in slopes:
        with tr.span("item", str(s)):
            ti = time.perf_counter()
            try:
                if tr.enabled:
                    counts.call(tr, "recursion", lib.recursion.get_engine(ring).polynomial, s)
                rs = counts.call(tr, "pleating", lib.pleating.cusp_candidates, s, params)
            except lib.errors.DegreeOverflow as exc:
                overflows += 1
                failures.append((str(s), f"DegreeOverflow: {exc}"))
                continue
            except Exception as exc:  # a failed item is counted, not fatal
                failures.append((str(s), f"{type(exc).__name__}: {exc}"))
                continue
            item_s[str(s)] = time.perf_counter() - ti
            with tr.span("bench.check"):
                coeffs = lib.recursion.get_engine(ring).polynomial(s).coeffs
                problems, vieta, gap = root_set_errors(rs, s, coeffs, forward=cone is None)
        root_sets.append(rs)
        unconverged += not rs.converged
        max_residual = max([max_residual] + rs.residuals)
        max_vieta, max_gap = max(max_vieta, vieta), max(max_gap, gap)
        failures.extend((str(s), p) for p in problems)
    with tr.span("serialize"):
        text = lib.serialize.roots_csv(root_sets)
    failures.extend(("roots_csv", p) for p in csv_errors(text, root_sets))
    wall = time.perf_counter() - t0
    polys = [lib.recursion.get_engine(ring).polynomial(s) for s in slopes]
    stats = {
        "pleating.rootsets": len(root_sets),
        "pleating.roots": sum(len(rs.roots) for rs in root_sets),
        "pleating.unconverged": unconverged,
        "pleating.overflows": overflows,
        "pleating.max_residual": max_residual,
        "pleating.max_vieta_err": max_vieta,
        "pleating.max_conj_gap": max_gap,
        "recursion.poly_muls": counts.muls.get("recursion", 0),
        "recursion.cache_entries": len(lib.recursion.get_engine(ring).cached_slopes()),
        "serialize.bytes": len(text.encode()),
        **coeff_stats(polys),
    }
    counters = {
        "rootsets": len(root_sets),
        "roots": stats["pleating.roots"],
        "poly_muls": lib.rings.poly_mul_count() - m0,
        "csv_bytes": stats["serialize.bytes"],
    }
    return PassResult(wall, item_s, len(slopes), failures, counters, stats)


def double_only_seconds(lib, slopes: list, tr) -> float:
    """all_roots on the parabolic shifted coefficients without
    exact_coeffs: the root-finding cost without the exact dyadic polish.
    Run after a pass, on its warm polynomial cache."""
    total = 0.0
    for s in slopes:
        poly = lib.recursion.get_engine("parabolic").polynomial(s)
        coeffs = [complex(c) for c in (poly + lib.rings.Poly([2])).coeffs]
        with tr.span("pleating.double_only", str(s)):
            t0 = time.perf_counter()
            try:
                lib.pleating.all_roots(coeffs)
            except lib.errors.DegreeOverflow:
                pass
            total += time.perf_counter() - t0
    return total


def verify_pass(lib, slopes: list, tr) -> PassResult:
    """A fresh generic-ring engine against the matrix oracle, slope by slope."""
    engine = lib.recursion.FareyPolynomialEngine("generic")
    counts = Counts(lib)
    item_s, failures, polys = {}, [], []
    letters = mismatches = 0
    m0 = lib.rings.poly_mul_count()
    t0 = time.perf_counter()
    for s in slopes:
        with tr.span("item", str(s)):
            ti = time.perf_counter()
            try:
                word = counts.call(tr, "words", lib.words.farey_word, s)
                want = counts.call(tr, "oracle", lambda w: lib.oracle.word_matrix(w, "generic").trace, word)
                got = counts.call(tr, "recursion", engine.polynomial, s)
                with tr.span("bench.check"):
                    same = got == want
            except Exception as exc:  # a failed item is counted, not fatal
                failures.append((str(s), f"{type(exc).__name__}: {exc}"))
                continue
            item_s[str(s)] = time.perf_counter() - ti
        letters += len(word)
        polys.append(got)
        if not same:
            mismatches += 1
            failures.append((str(s), "recursion differs from the oracle"))
    wall = time.perf_counter() - t0
    stats = {
        "words.letters": letters,
        "oracle.poly_muls": counts.muls.get("oracle", 0),
        "recursion.poly_muls": counts.muls.get("recursion", 0),
        "recursion.cache_entries": len(engine.cached_slopes()),
        **coeff_stats(polys),
    }
    counters = {"verified": len(item_s) - mismatches, "poly_muls": lib.rings.poly_mul_count() - m0}
    return PassResult(wall, item_s, len(slopes), failures, counters, stats)


def fibonacci_pass(lib, inputs: tuple, tr) -> PassResult:
    """One fresh parabolic engine computes the target polynomial; the
    result is checked for degree, P(0) = 2 and values modulo a prime."""
    s, points = inputs
    engine = lib.recursion.FareyPolynomialEngine("parabolic")
    counts = Counts(lib)
    failures, item_s = [], {}
    letters = 0
    poly = None
    m0 = lib.rings.poly_mul_count()
    t0 = time.perf_counter()
    with tr.span("item", str(s)):
        try:
            poly = counts.call(tr, "recursion", engine.polynomial, s)
            item_s[str(s)] = time.perf_counter() - t0
            with tr.span("bench.check"):
                word = counts.call(tr, "words", lib.words.farey_word, s)
                letters = len(word)
                if poly.degree != s.q:
                    failures.append((str(s), f"degree {poly.degree}"))
                if poly.coeffs[0] != 2:
                    failures.append((str(s), f"P(0) = {poly.coeffs[0]}"))
                for z in points:
                    if poly_mod(poly.coeffs, z) != word_trace_mod(word, z):
                        failures.append((str(s), f"value at z={z} differs from the word matrices"))
        except Exception as exc:  # a failed item is counted, not fatal
            failures.append((str(s), f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - t0
    stats = {
        "words.letters": letters,
        "recursion.poly_muls": counts.muls.get("recursion", 0),
        "recursion.cache_entries": len(engine.cached_slopes()),
        **coeff_stats([poly] if poly is not None else []),
    }
    counters = {"poly_muls": lib.rings.poly_mul_count() - m0}
    return PassResult(wall, item_s, 1, failures, counters, stats)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable  # (lib, seed) -> inputs
    run_pass: Callable  # (lib, inputs, tracer) -> PassResult
    # Counters every pass must reproduce at seed 0.
    seed0_counters: dict
    # Extra traced-run measurement, after the passes: (lib, inputs, tracer) -> stats.
    probe: Optional[Callable] = None


# Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "slice-parabolic": Workload(
        slice_slopes,
        lambda lib, inp, tr: slice_pass(lib, inp, None, tr),
        {"rootsets": 491},
        lambda lib, inp, tr: {"pleating.double_only_s": double_only_seconds(lib, inp, tr)},
    ),
    "slice-cone": Workload(
        slice_slopes,
        lambda lib, inp, tr: slice_pass(lib, inp, (3, 4), tr),
        {"rootsets": 491},
    ),
    "poly-fibonacci": Workload(fibonacci_input, fibonacci_pass, {"poly_muls": 16}),
    "verify-generic": Workload(
        lambda lib, seed: slice_slopes(lib, seed, 18), verify_pass, {"verified": 103}
    ),
}
