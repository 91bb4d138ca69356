"""Command-line interface: chart coordinates, knot curves, homology tables,
and fundamental-group certificates as reproducible file-oriented runs.

Every subcommand is deterministic: the same configuration produces byte
identical output.  Structured records are JSON, curve samples are CSV.
Exit codes: 0 success, 1 a verification failed, 2 usage error.  Every
usage error that needs no work to find (a bad flag value, csv outside knot,
more than 3 points, a size over its cap, --relative with k != 3) is decided
in _run before any subcommand starts; the subcommands read the parsed
arguments directly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import complexes
from .complexes import (
    build_exp_model,
    relative_quotient_homology,
    rp3_collapse_oracle,
)
from .config import (
    EXCEPTIONAL_POINT,
    FiniteSubset,
    boundary_torus_curve,
    c2_coord,
    c3_orbit,
    core_circle,
    exp3_coord,
    winding_diagnostic,
)
from .groups import (
    Presentation,
    coset_enumeration,
    count_homs,
    format_presentation,
    pushout,
    pushout_band_piece,
    pushout_complement,
    pushout_exp3,
    symmetric_group,
    tietze_simplify,
)


# Size caps, checked before any work.  The subset-space model of the
# k-subsets at mesh n has n**k * ((k+1)!)**2 top simplices: the cap admits
# k = 3 up to n = 6 (124 416) and k = 2 up to n = 58 (121 104).
MAX_TOP_SIMPLICES = 125_000
MAX_SAMPLES = 100_000


def _num(v: float):
    """Floats printed with 12 significant digits; integral values as ints."""
    f = float(f"{v:.12g}")
    if f.is_integer() and abs(f) < 1e15:
        return int(f)
    return f


def _dump(record) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_coord(args) -> int:
    s = FiniteSubset(args.points)
    coord = exp3_coord(s)
    if coord.tag == "C1":
        record = {"tag": "C1", "alpha": _num(coord.c1)}
    elif coord.tag == "C2":
        record = {"tag": "C2", "phi": _num(coord.c2.phi), "theta": _num(coord.c2.theta)}
    else:
        orbit = c3_orbit(s)
        record = {
            "tag": "C3",
            "z": {"re": _num(coord.c3.z.real), "im": _num(coord.c3.z.imag)},
            "theta": _num(coord.c3.theta),
            "exceptional": abs(coord.c3.z - EXCEPTIONAL_POINT) <= args.tol,
            "orbit": [
                {"re": _num(f.z.real), "im": _num(f.z.imag), "theta": _num(f.theta)}
                for f in orbit
            ],
        }
    _emit(_dump(record), args.out)
    return 0


def cmd_knot(args) -> int:
    core, csv, tol = args.core, args.fmt == "csv", args.tol
    loop = core_circle(args.samples) if core else boundary_torus_curve(args.eps, args.samples)
    try:
        w = winding_diagnostic(loop)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # samples are charted for the band check and for the CSV rows only
    lines = ["index,angle1,angle2,phi,theta"]
    if csv or not core:
        band_phi = math.pi / 2 - args.eps
        for i, s in enumerate(loop.subsets):
            c = c2_coord(s)
            if not core and abs(c.phi - band_phi) > tol:
                print("error: sample left the expected band locus", file=sys.stderr)
                return 1
            if csv:
                lines.append("%d,%.12g,%.12g,%.12g,%.12g" % (i, *s.angles, *c))
    if csv:
        lines.append(f"windings: ({w[0]}, {w[1]})")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        record = {
            "eps": _num(args.eps),
            "samples": args.samples,
            "core": core,
            "windings": [w[0], w[1]],
        }
        _emit(_dump(record), args.out)
    return 0


def cmd_homology(args) -> int:
    # the inputs are validated by now, so a ValueError from the build or the
    # homology (a degenerate identification, an asymmetric torus, a nonzero
    # d∘d) is a failed verification in either mode
    try:
        if args.relative:
            rel = relative_quotient_homology(args.mesh_n)
            oracle = rp3_collapse_oracle()
            record = {
                "k": 3,
                "n": args.mesh_n,
                "mode": "relative",
                "betti": rel.betti,
                "torsion": [list(t) for t in rel.torsion],
                "oracle_betti": oracle.betti,
                "oracle_torsion": [list(t) for t in oracle.torsion],
                "match": rel == oracle,
            }
            ok = record["match"]
        else:
            # the complex is dropped once its chain complex is built, so the
            # reduction holds one copy of it; chain_complex is looked up on
            # the module, whose names benchmarks/tracing.py wraps
            cx = build_exp_model(args.k, args.mesh_n).complex
            counts, euler = cx.counts(), cx.euler_characteristic()
            chains = complexes.chain_complex(cx)
            del cx
            h = chains.homology()
            record = {
                "k": args.k,
                "n": args.mesh_n,
                "mode": "absolute",
                "counts": counts,
                "euler": euler,
                "betti": h.betti,
                "torsion": [list(t) for t in h.torsion],
                "boundary_check": True,
            }
            ok = True
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(_dump(record), args.out)
    return 0 if ok else 1


def cmd_pi1(args) -> int:
    case = args.case
    # looked up per call, so a wrapped pushout function is the one called
    data = {"exp3": pushout_exp3, "Bprime": pushout_band_piece,
            "complement": pushout_complement}[case]()
    assembled = pushout(data)
    tietze = tietze_simplify(assembled)
    simplified = tietze.presentation
    if case == "exp3":
        cert = coset_enumeration(assembled, coset_limit=100)
        certificate = {
            "order": cert.order,
            "conclusive": cert.conclusive,
            "cosets": len(cert.table) if cert.table else None,
        }
        ok = cert.conclusive and cert.order == 1
    elif case == "Bprime":
        expected = Presentation(("b", "c"), [(2, 2, 1, -2, -2, -1)])  # [c^2, b]
        matches = simplified == expected
        certificate = {
            "expected": format_presentation(expected),
            "matches_expected": matches,
            "abelianization": str(tietze.abelianization),
        }
        ok = matches
    else:  # complement
        # <s, t | s^3 t^-2> in the names Tietze leaves: u^3 t^-2
        matches = simplified == Presentation(("t", "u"), [(2, 2, 2, -1, -1)])
        ab = tietze.abelianization
        s3 = symmetric_group(3)
        homs = count_homs(simplified, s3)
        homs_unknot = count_homs(Presentation(("a",)), s3)  # the unknot: gens: a; rels:
        certificate = {
            "matches_expected": matches,
            "abelianization": str(ab),
            "homs_to_S3": homs,
            "homs_to_S3_unknot": homs_unknot,
            "distinguishes_unknot": homs != homs_unknot,
        }
        ok = matches and ab.rank == 1 and not ab.torsion and homs != homs_unknot
    record = {
        "case": case,
        "assembled": format_presentation(assembled),
        "simplified": format_presentation(simplified),
        "certificate": certificate,
    }
    _emit(_dump(record), args.out)
    return 0 if ok else 1


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; built once per process, since building it costs far
    more than a parse."""
    parser = argparse.ArgumentParser(
        prog="expcircle",
        description="charts, curves, homology and group certificates for "
                    "subset spaces of the circle",
    )
    parser.add_argument("--tol", type=_finite_float, default=1e-9, help="numeric tolerance")
    parser.add_argument("--mesh-n", type=int, default=3, help="grid subdivisions per circle")
    parser.add_argument("--samples", type=int, default=720, help="samples per curve")
    parser.add_argument("--eps", type=_finite_float, default=0.1, help="band distance from the core")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None,
                        help="output format (default: json, csv for knot curves)")
    parser.add_argument("--out", default=None, help="write output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coord", help="chart coordinates of 1 to 3 circle points")
    p.add_argument("points", type=_finite_float, nargs="+", help="angles in radians")

    p = sub.add_parser("knot", help="boundary torus curve samples and windings")
    p.add_argument("--core", action="store_true", help="sample the core circle instead")

    p = sub.add_parser("homology", help="integer homology of the subset-space model")
    p.add_argument("k", type=int, choices=(2, 3))
    p.add_argument("--relative", action="store_true",
                   help="collapse the pair stratum and compare to the projective oracle")

    p = sub.add_parser("pi1", help="fundamental-group certificates")
    p.add_argument("case", choices=("exp3", "Bprime", "complement"))
    for p in (parser, *sub.choices.values()):
        # argparse's own pattern knows no exponent or inf, so it would take
        # "-1e-3" or "-inf" for an option string, not an angle or a flag value
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every usage error the parser leaves open is decided here, before any work
    args.fmt = args.fmt or ("csv" if args.command == "knot" else "json")
    if args.command != "knot" and args.fmt == "csv":
        parser.error("csv output is only available for knot curves")
    if args.tol <= 0:
        parser.error("tolerance must be positive")
    if args.mesh_n < 3:
        parser.error("mesh size must be at least 3")
    if not 8 <= args.samples <= MAX_SAMPLES:
        parser.error(f"sample count must lie in [8, {MAX_SAMPLES}]")
    if args.command == "coord" and len(args.points) > 3:
        parser.error("at most 3 points are supported")
    if args.command == "homology":
        tops = args.mesh_n ** args.k * math.factorial(args.k + 1) ** 2
        if tops > MAX_TOP_SIMPLICES:
            parser.error(f"mesh size {args.mesh_n} gives {tops} top simplices for k = {args.k}, "
                         f"more than the cap of {MAX_TOP_SIMPLICES}")
        if args.relative and args.k != 3:
            parser.error("relative mode needs k = 3")
    # input the parser cannot judge (points too close to chart, an eps off
    # the band, an unwritable --out) is a usage error, not a traceback;
    # verification failures are reported by the commands with exit 1
    try:
        if args.command == "coord":
            return cmd_coord(args)
        if args.command == "knot":
            return cmd_knot(args)
        if args.command == "homology":
            return cmd_homology(args)
        return cmd_pi1(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        return _run(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0


if __name__ == "__main__":
    sys.exit(main())
