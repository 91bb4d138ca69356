"""Command-line interface: chart coordinates, knot curves, homology tables,
and fundamental-group certificates as reproducible file-oriented runs.

Every subcommand is deterministic: the same configuration produces byte
identical output.  Structured records are JSON, curve samples are CSV.
Exit codes: 0 success, 1 a verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

from .complexes import (
    build_exp_complex,
    homology,
    relative_quotient_homology,
    rp3_collapse_oracle,
)
from .config import (
    EXCEPTIONAL_POINT,
    FiniteSubset,
    boundary_torus_curve,
    c2_coord,
    c3_orbit,
    exp3_coord,
    winding_diagnostic,
)
from .groups import (
    abelianization,
    coset_enumeration,
    count_homs,
    format_presentation,
    pushout,
    pushout_band_piece,
    pushout_complement,
    pushout_exp3,
    same_up_to_renaming,
    parse_presentation,
    symmetric_group,
    tietze_simplify,
)


# Size caps, checked before any work.  The subset-space model of the
# k-subsets at mesh n has n**k * ((k+1)!)**2 top simplices: the cap admits
# k = 3 up to n = 5 (72 000) and k = 2 up to n = 47.
MAX_TOP_SIMPLICES = 80_000
MAX_SAMPLES = 100_000


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    tol: float
    mesh_n: int
    samples: int
    eps: float
    fmt: str
    out: str | None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.mesh_n < 3:
            raise ValueError("mesh size must be at least 3")
        if not 8 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"sample count must lie in [8, {MAX_SAMPLES}]")


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


def cmd_coord(cfg: RunConfig, points) -> int:
    s = FiniteSubset(points)
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
            "exceptional": abs(coord.c3.z - EXCEPTIONAL_POINT) <= cfg.tol,
            "orbit": [
                {"re": _num(f.z.real), "im": _num(f.z.imag), "theta": _num(f.theta)}
                for f in orbit
            ],
        }
    _emit(_dump(record), cfg.out)
    return 0


def cmd_knot(cfg: RunConfig, core: bool = False) -> int:
    if core:
        from .config import core_circle

        loop = core_circle(cfg.samples)
    else:
        loop = boundary_torus_curve(cfg.eps, cfg.samples)
    try:
        w = winding_diagnostic(loop)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = ["index,angle1,angle2,phi,theta"]
    for i, s in enumerate(loop.subsets):
        c = c2_coord(s)
        if not core and abs(c.phi - (math.pi / 2 - cfg.eps)) > cfg.tol:
            print("error: sample left the expected band locus", file=sys.stderr)
            return 1
        a1, a2 = s.angles
        lines.append(f"{i},{a1:.12g},{a2:.12g},{c.phi:.12g},{c.theta:.12g}")
    lines.append(f"windings: ({w[0]}, {w[1]})")
    if cfg.fmt == "json":
        record = {
            "eps": _num(cfg.eps),
            "samples": cfg.samples,
            "core": core,
            "windings": [w[0], w[1]],
        }
        _emit(_dump(record), cfg.out)
    else:
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_homology(cfg: RunConfig, k: int, relative: bool) -> int:
    if relative and k != 3:
        print("error: relative mode needs k = 3", file=sys.stderr)
        return 2
    # the inputs are validated by now, so a ValueError from the build or the
    # homology (a degenerate identification, an asymmetric torus, a nonzero
    # d∘d) is a failed verification in either mode
    try:
        if relative:
            rel = relative_quotient_homology(cfg.mesh_n)
            oracle = rp3_collapse_oracle()
            record = {
                "k": 3,
                "n": cfg.mesh_n,
                "mode": "relative",
                "betti": rel.betti,
                "torsion": [list(t) for t in rel.torsion],
                "oracle_betti": oracle.betti,
                "oracle_torsion": [list(t) for t in oracle.torsion],
                "match": rel == oracle,
            }
            ok = record["match"]
        else:
            cx = build_exp_complex(k, cfg.mesh_n)
            h = homology(cx)
            record = {
                "k": k,
                "n": cfg.mesh_n,
                "mode": "absolute",
                "counts": cx.counts(),
                "euler": cx.euler_characteristic(),
                "betti": h.betti,
                "torsion": [list(t) for t in h.torsion],
                "boundary_check": True,
            }
            ok = True
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(_dump(record), cfg.out)
    return 0 if ok else 1


def cmd_pi1(cfg: RunConfig, case: str) -> int:
    if case == "exp3":
        assembled = pushout(pushout_exp3())
        cert = coset_enumeration(assembled, coset_limit=100)
        simplified = tietze_simplify(assembled).presentation
        record = {
            "case": "exp3",
            "assembled": format_presentation(assembled),
            "simplified": format_presentation(simplified),
            "certificate": {
                "order": cert.order,
                "conclusive": cert.conclusive,
                "cosets": len(cert.table) if cert.table else None,
            },
        }
        ok = cert.conclusive and cert.order == 1
    elif case == "Bprime":
        assembled = pushout(pushout_band_piece())
        simplified = tietze_simplify(assembled).presentation
        expected = parse_presentation("gens: b c; rels: [c^2, b]")
        matches = same_up_to_renaming(simplified, expected)
        record = {
            "case": "Bprime",
            "assembled": format_presentation(assembled),
            "simplified": format_presentation(simplified),
            "certificate": {
                "expected": format_presentation(expected),
                "matches_expected": matches,
                "abelianization": str(abelianization(simplified)),
            },
        }
        ok = matches
    else:  # complement
        assembled = pushout(pushout_complement())
        simplified = tietze_simplify(assembled).presentation
        expected = parse_presentation("gens: s t; rels: s^3 t^-2")
        matches = same_up_to_renaming(simplified, expected)
        ab = abelianization(simplified)
        s3 = symmetric_group(3)
        homs = count_homs(simplified, s3)
        homs_unknot = count_homs(parse_presentation("gens: a; rels:"), s3)
        record = {
            "case": "complement",
            "assembled": format_presentation(assembled),
            "simplified": format_presentation(simplified),
            "certificate": {
                "matches_expected": matches,
                "abelianization": str(ab),
                "homs_to_S3": homs,
                "homs_to_S3_unknot": homs_unknot,
                "distinguishes_unknot": homs != homs_unknot,
            },
        }
        ok = matches and ab.rank == 1 and not ab.torsion and homs != homs_unknot
    _emit(_dump(record), cfg.out)
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
    return parser


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.fmt or ("csv" if args.command == "knot" else "json")
    if args.command != "knot" and fmt == "csv":
        parser.error("csv output is only available for knot curves")
    try:
        cfg = RunConfig(
            tol=args.tol,
            mesh_n=args.mesh_n,
            samples=args.samples,
            eps=args.eps,
            fmt=fmt,
            out=args.out,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "coord" and len(args.points) > 3:
        parser.error("at most 3 points are supported")
    if args.command == "homology":
        tops = cfg.mesh_n ** args.k * math.factorial(args.k + 1) ** 2
        if tops > MAX_TOP_SIMPLICES:
            parser.error(f"mesh size {cfg.mesh_n} gives {tops} top simplices for k = {args.k}, "
                         f"more than the cap of {MAX_TOP_SIMPLICES}")
    # input the parser cannot judge (points too close to chart, an eps off
    # the band, an unwritable --out) is a usage error, not a traceback;
    # verification failures are reported by the commands with exit 1
    try:
        if args.command == "coord":
            return cmd_coord(cfg, args.points)
        if args.command == "knot":
            return cmd_knot(cfg, core=args.core)
        if args.command == "homology":
            return cmd_homology(cfg, args.k, args.relative)
        return cmd_pi1(cfg, args.case)
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
