"""Exact Farey words, trace polynomials, and slice boundary data.

The package computes the trace polynomials attached to slopes of the
Farey graph three independent ways (cutting-sequence words and matrix
traces; the triangle recursion; fan closed forms), extracts root loci
that approximate slice boundaries and cusps, and ships an experimental
scanner for the square structure of the reduced polynomials.
"""

from . import (
    benchmark,
    conjecture,
    frf,
    oracle,
    pleating,
    serialize,
)
from .errors import FareySliceError
from .recursion import (
    FareyPolynomialEngine,
    cubic_step,
    cubic_step_homogeneous,
    fan_walk,
    farey_polynomial,
    homogeneous_farey_polynomial,
    recursion_constants,
    reduced_farey_polynomial,
)
from .rings import (
    GeneratorParams,
    Laurent2,
    Poly,
    is_perfect_square,
    poly_sqrt_exact,
)
from .slopes import (
    CFExpansion,
    Slope,
    boundary_sequence,
    continued_fraction,
    convergents,
    enumerate_farey,
    farey_expansion,
    is_neighbor,
    mediant,
    ominus,
    parents,
    semiconvergent_path,
)
from .words import (
    Letter,
    Word,
    concat_flip,
    cyclic_reduce,
    farey_word,
    free_reduce,
    prefix_conjugacy,
)

__version__ = "0.1.0"

__all__ = [
    "FareySliceError",
    "Slope",
    "CFExpansion",
    "Letter",
    "Word",
    "Laurent2",
    "Poly",
    "GeneratorParams",
    "FareyPolynomialEngine",
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
    "farey_word",
    "concat_flip",
    "free_reduce",
    "cyclic_reduce",
    "prefix_conjugacy",
    "farey_polynomial",
    "reduced_farey_polynomial",
    "homogeneous_farey_polynomial",
    "fan_walk",
    "cubic_step",
    "cubic_step_homogeneous",
    "recursion_constants",
    "poly_sqrt_exact",
    "is_perfect_square",
    "oracle",
    "frf",
    "pleating",
    "conjecture",
    "serialize",
    "benchmark",
]
