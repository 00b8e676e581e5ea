"""Command-line surface.

Exit codes: 0 success, 1 usage error (arguments that do not parse, or an
output path that cannot be written), 2 computational failure (oracle
mismatch, non-convergence, a conjecture violation under --strict, or an
error raised inside a computation).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import benchmark, conjecture, frf, pleating, serialize
from .errors import FareySliceError, SingularParameter
from .rings import Ring
from .recursion import dynsys_check, farey_polynomial, homogeneous_farey_polynomial
from .slopes import CFExpansion, Slope, enumerate_farey
from .words import farey_word


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _parsed(convert, *values):
    """One command-line value converted; failing to convert is a usage error."""
    try:
        return convert(*values)
    except (ValueError, FareySliceError) as exc:
        raise _UsageError(str(exc)) from exc


def _add_ring_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring", default="parabolic",
                   help="ring label: parabolic (the default), generic, or numeric(a,b) with"
                        " cone orders a, b each an integer >= 2 or inf, e.g. 'numeric(3,4)'")


def _parse_cf(args) -> CFExpansion:
    terms = args.cf.split(",")
    return _parsed(lambda: CFExpansion(tuple(int(t) for t in terms), period=args.periodic))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="fareyslice")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("word", help="Farey word of a slope")
    p.add_argument("--slope", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("poly", help="trace polynomial of a slope")
    p.add_argument("--slope", required=True)
    _add_ring_option(p)
    p.add_argument("--out")

    p = sub.add_parser("homog", help="homogeneous polynomial of a slope")
    p.add_argument("--slope", required=True)
    p.add_argument("--out")

    p = sub.add_parser("closed-form", help="left-fan value by closed form")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", required=True, help="complex number, e.g. '1+2j'")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="recursion against the matrix oracle")
    p.add_argument("--qmax", type=int, default=8)
    p.add_argument("--out")

    p = sub.add_parser("slice", help="root cloud over all small slopes")
    p.add_argument("--qmax", type=int, required=True)
    _add_ring_option(p)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("cusp-path", help="root sets along a continued fraction")
    p.add_argument("--cf", required=True, help="comma-separated terms")
    p.add_argument("--periodic", type=int, default=0,
                   help="repeat the final N terms forever")
    p.add_argument("--depth", type=int, required=True)
    _add_ring_option(p)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("conjecture", help="square-structure scan")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--svg", help="colored tree scatter path")
    p.add_argument("--strict", action="store_true")

    sub.add_parser("dynsys", help="fixed-point checks of the cubic step map")

    p = sub.add_parser("bench", help="recursion vs matrix-product benchmark")
    p.add_argument("--path", choices=["left", "fibonacci"], default="fibonacci")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out")

    return parser


def _cmd_word(args) -> int:
    s = _parsed(Slope.parse, args.slope)
    w = farey_word(s)
    if args.format == "json":
        payload = {"slope": str(s), "word": str(w), "length": len(w)}
        _emit(serialize.dumps_canonical(payload), args.out)
    else:
        _emit(str(w), args.out)
    return 0


def _cmd_poly(args) -> int:
    s = _parsed(Slope.parse, args.slope)
    ring = _parsed(Ring.parse, args.ring)
    poly = farey_polynomial(s, ring)
    _emit(serialize.dumps_canonical(serialize.polynomial_payload(s, ring.label, poly)),
          args.out)
    return 0


def _cmd_homog(args) -> int:
    s = _parsed(Slope.parse, args.slope)
    poly = homogeneous_farey_polynomial(s)
    payload = serialize.polynomial_payload(s, "homogeneous", poly)
    _emit(serialize.dumps_canonical(payload), args.out)
    return 0


def _cmd_closed_form(args) -> int:
    z = _parsed(complex, args.z)
    try:
        value = frf.closed_form_left(z, args.q)
        method = "closed"
    except SingularParameter:
        value = complex(frf.left_sequence(z, args.q))
        method = "recurrence-fallback"
    payload = {
        "q": args.q,
        "z": [z.real, z.imag],
        "value": [value.real, value.imag],
        "method": method,
    }
    _emit(serialize.dumps_canonical(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    slopes = enumerate_farey(args.qmax)
    bad = benchmark.route_mismatches(slopes)
    lines = [f"{'FAIL' if s in bad else 'OK  '} {s}" for s in slopes]
    lines.append(f"{f'{len(bad)} mismatches' if bad else 'all slopes agree'}"
                 f" (q <= {args.qmax})")
    _emit("\n".join(lines), args.out)
    return 2 if bad else 0


def _root_sets_output(root_sets, args) -> int:
    if args.format == "svg":
        pts = [(z.real, z.imag) for rs in root_sets for z in rs.roots]
        _emit(serialize.scatter_svg(pts), args.out)
    else:
        _emit(serialize.roots_csv(root_sets), args.out)
    unconverged = [rs for rs in root_sets if not rs.converged]
    if unconverged:
        worst = max((r for rs in unconverged for r in rs.residuals), default=0.0)
        print(f"warning: {len(unconverged)} of {len(root_sets)} root sets unconverged,"
              f" worst residual {worst:.2e}", file=sys.stderr)
        return 2
    return 0


def _cmd_slice(args) -> int:
    ring = _parsed(pleating.root_ring, args.ring)
    return _root_sets_output(pleating.slice_cloud(args.qmax, ring), args)


def _cmd_cusp_path(args) -> int:
    ring = _parsed(pleating.root_ring, args.ring)
    cf = _parse_cf(args)
    return _root_sets_output(pleating.irrational_cusp_path(cf, args.depth, ring), args)


def _cmd_conjecture(args) -> int:
    rules = conjecture.bad_points(args.qmax)
    parity = conjecture.epsilon_k_check(args.qmax)
    failures = [str(s) for s, rule in rules.items() if rule == "neither"]
    report = {
        "qmax": args.qmax,
        "rules": {str(s): rule for s, rule in sorted(rules.items())},
        "rule_failures": failures,
        "sign_parity": {
            "seed_signs_match": parity.seed_signs_match,
            "seed_k_match": parity.seed_k_match,
            "raw_sign_multiplicative": parity.raw_sign_multiplicative,
            "negated_sign_multiplicative": parity.negated_sign_multiplicative,
            "k_additive": parity.k_additive,
        },
    }
    _emit(serialize.dumps_canonical(report), args.out)
    if args.svg:
        pts = [(s.p / s.q, 1.0 / s.q) for s in rules]
        colors = {
            "plus": "steelblue", "minus": "crimson",
            "both": "purple", "neither": "black",
        }
        svg = serialize.scatter_svg(pts, [colors[r] for r in rules.values()],
                                    radius=0.006)
        with open(args.svg, "w") as fh:
            fh.write(svg)
    if failures and args.strict:
        return 2
    return 0


def _cmd_dynsys(args) -> int:
    report = dynsys_check()
    print(report)
    return 0 if report.all_pass else 2


def _cmd_bench(args) -> int:
    report = benchmark.run_benchmark(args.path, args.size)
    _emit(serialize.dumps_canonical(report.payload()), args.out)
    return 0


_DISPATCH = {
    "word": _cmd_word,
    "poly": _cmd_poly,
    "homog": _cmd_homog,
    "closed-form": _cmd_closed_form,
    "verify": _cmd_verify,
    "slice": _cmd_slice,
    "cusp-path": _cmd_cusp_path,
    "conjecture": _cmd_conjecture,
    "dynsys": _cmd_dynsys,
    "bench": _cmd_bench,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, FareySliceError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
