"""Trace polynomials three ways: matrices, recursion, specialisation.

The triangle recursion reproduces the matrix-trace definition exactly in
the generic two-parameter ring, then specialises to the parabolic
integers and to numeric cone angles.
"""

import math

from fareyslice import (
    GeneratorParams,
    Slope,
    enumerate_farey,
    farey_polynomial,
    oracle,
)
from fareyslice.rings import Ring

print("recursion vs matrix oracle, exact equality in the generic ring:")
for s in enumerate_farey(6):
    same = farey_polynomial(s, "generic") == oracle.farey_polynomial(s, "generic")
    print(f"  {str(s):>5}: {'ok' if same else 'MISMATCH'}")

print("\nparabolic polynomials along the Fibonacci geodesic:")
fib = [0, 1, 1, 2, 3, 5, 8, 13]
for i in range(2, 8):
    s = Slope(fib[i - 1], fib[i])
    print(f"  {str(s):>5}: {farey_polynomial(s, 'parabolic').coeffs}")

s = Slope(3, 8)
generic = farey_polynomial(s, "generic")
print(f"\nspecialisations of the {s} polynomial:")
print(f"  parabolic: {Ring.parse('parabolic').specialize(generic).coeffs}")
for a, b in ((3, 3), (3, 4), (4, math.inf)):
    params = GeneratorParams(a, b)
    numeric = farey_polynomial(s, params)
    pretty = [f"{c.real:+.3f}{c.imag:+.3f}i" for c in numeric.coeffs[:3]]
    print(f"  cone orders ({params.label()}): {pretty} ...")
