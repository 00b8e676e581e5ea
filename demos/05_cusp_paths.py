"""Approximating irrational cusps along continued-fraction paths.

The convergents of an irrational walk down the Farey graph; the root
sets of their shifted polynomials accumulate near the cusp the
irrational indexes.  The farthest-from-centroid root is an exploratory
cusp guess only.
"""

import pathlib

from fareyslice import CFExpansion, pleating, serialize

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

paths = {
    # convergent denominators grow fast: these depths end at 13/21 and
    # 29/41, which keeps the demo quick; every set stays converged through
    # golden depth 14 (377/610, 610 roots) and inv_sqrt2 depth 8
    # (408/577, 577 roots)
    "golden": (CFExpansion((0, 1), period=1), 7),       # 1/golden-ratio
    "inv_sqrt2": (CFExpansion((0, 1, 2), period=1), 5),  # 1/sqrt(2)
}

for name, (cf, depth) in paths.items():
    sets = pleating.irrational_cusp_path(cf, depth)
    print(f"{name}: convergents {[str(rs.slope) for rs in sets]}")
    last = sets[-1]
    guess = pleating.extremal_root_heuristic(last)
    print(f"  extremal root of the deepest set (HEURISTIC): {guess:.6f}")
    points = [(z.real, z.imag) for rs in sets for z in rs.roots]
    svg = OUT / f"cusp_path_{name}.svg"
    svg.write_text(serialize.scatter_svg(points))
    print(f"  wrote {svg.name} ({len(points)} points)")
