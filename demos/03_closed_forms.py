"""Closed forms, cycles, and the Chebyshev connection on mediant fans.

Down any fan of repeated mediants the triangle recursion is second order
and linear, so it diagonalises: the 1/q family gets an explicit formula,
small integer parameters give periodic value sequences, and the whole
homogeneous family rides a shifted Chebyshev recurrence.
"""

from fareyslice import Slope, frf

z = 1 + 1j
print(f"closed form vs recursion for the 1/q family at z = {z}:")
for q in (0, 1, 2, 5, 12, 30):
    closed = frf.closed_form_left(z, q)
    direct = frf.left_sequence(z, q)
    print(f"  q={q:>2}: closed {closed:.6f}   recurrence {direct:.6f}")

print("\nperiodic fan values at small integer parameters:")
for z0 in (1, 2, 3):
    period = frf.detect_cycle(z0, 10)
    vals = [frf.left_sequence(z0, q, constant=0) for q in range(1, 1 + 2 * period)]
    print(f"  z={z0}: period {period}, values {vals[:period]} repeating")
print("  z=4: no cycle, arithmetic steps of 4:",
      [frf.left_sequence(4, q, constant=0) for q in range(6)])

print("\nthe 1/q fan against 2 T_q(x) + 4 U_(q-1)(x), x = (z - 2)/2:")
ok = all(frf.chebyshev_match(q, 2.7) for q in range(25))
print(f"  chebyshev_match(q, 2.7) for q < 25: {ok}")

print("\nfan transition applied around 1/2 (homogeneous family):")
spec = frf.homogeneous_spec()
for n in (-2, -1, 0, 1, 2):
    first, _ = frf.boundary_matrix_power(spec, Slope(1, 2), n)
    print(f"  n={n:+d}: {first.coeffs}")
