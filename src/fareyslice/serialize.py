"""Stable text formats: JSON polynomials, root CSV, scatter SVG.

JSON is emitted canonically (sorted keys, tight separators) so that
parse -> emit is byte-identical.  Generic coefficients serialise as
sorted arrays of {i, j, c} objects with decimal-string values, since the
integers routinely exceed anything a JSON reader should be trusted with.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from .pleating import RootSet
from .rings import Laurent2, Poly, Ring
from .slopes import Slope

__all__ = [
    "polynomial_payload",
    "dumps_canonical",
    "parse_polynomial",
    "roots_csv",
    "scatter_svg",
]


def _coeff_payload(c):
    if isinstance(c, Laurent2):
        return [{"i": i, "j": j, "c": str(v)} for i, j, v in c.sorted_terms()]
    if isinstance(c, complex):
        return [c.real, c.imag]
    return c


def polynomial_payload(slope: Optional[Slope], ring: str, poly: Poly) -> dict:
    return {
        "slope": str(slope) if slope is not None else None,
        "ring": ring,
        "coeffs": [_coeff_payload(c) for c in poly.coeffs],
    }


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _coeff_from_payload(entry, name: str):
    if name == "generic":
        return Laurent2({(t["i"], t["j"]): int(t["c"]) for t in entry})
    if name == "numeric":
        return complex(entry[0], entry[1])
    return entry


def parse_polynomial(text: str) -> tuple[Optional[Slope], str, Poly]:
    """Slope, ring label and polynomial.

    The label is "homogeneous" (integer coefficients, as ``fareyslice
    homog`` writes them) or anything ``Ring.parse`` accepts; any other
    label raises ValueError.
    """
    data = json.loads(text)
    label = data["ring"]
    name = label if label == "homogeneous" else Ring.parse(label).name
    slope = Slope.parse(data["slope"]) if data.get("slope") else None
    coeffs = [_coeff_from_payload(e, name) for e in data["coeffs"]]
    return slope, label, Poly(coeffs)


def roots_csv(root_sets: Iterable[RootSet]) -> str:
    lines = ["re,im,p,q,residual"]
    for rs in root_sets:
        p, q = rs.slope.p, rs.slope.q
        for z, r in zip(rs.roots, rs.residuals):
            lines.append(f"{z.real!r},{z.imag!r},{p},{q},{r!r}")
    return "\n".join(lines) + "\n"


def scatter_svg(
    points: Iterable[tuple[float, float]],
    colors: Optional[Iterable[str]] = None,
    radius: float = 0.004,
) -> str:
    """Minimal static scatter: unit-square viewBox scaled to data bounds."""
    pts = list(points)
    cols = list(colors) if colors is not None else ["black"] * len(pts)
    if not pts:
        return '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1"></svg>'
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    pad = 0.03
    body = []
    for (x, y), col in zip(pts, cols):
        u = pad + (1 - 2 * pad) * (x - x0) / dx
        # SVG y runs downward; flip so the picture is in standard position.
        v = pad + (1 - 2 * pad) * (y1 - y) / dy
        body.append(f'<circle cx="{u:.5f}" cy="{v:.5f}" r="{radius}" fill="{col}"/>')
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">'
        + "".join(body)
        + "</svg>"
    )
