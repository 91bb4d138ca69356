"""Output checks for the benchmark, computed apart from the program.

Every expected value here comes from topology or from a brute force written
for the benchmark, never from the program's own oracles:

* homology tables from the homotopy types exp_2 ~ S^1 (the closed Moebius
  band) and exp_3 ~ S^3, and the relative table of (exp_3, exp_2) from the
  long exact sequence of the pair;
* the top simplex count n^k ((k+1)!)^2 of the two-fold subdivided quotient;
* chart facts: the tag is the number of distinct points, a pair's phi is half
  its shorter arc, equally spaced triples sit at z = e^{i pi/3};
* knot samples on the band locus phi = pi/2 - eps, windings (2, 3) and (1, 0);
* group certificates re-read from the printed presentations, with
  homomorphisms into S_3 counted over all permutations of {0, 1, 2}.

Each check returns a list of problems; an empty list means the output
passed.  ``self_test`` feeds every check a correct record and deliberately
wrong ones and reports any wrong record a check failed to reject.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations, permutations, product

TWO_PI = 2.0 * math.pi
EXCEPTIONAL_Z = cmath.exp(1j * math.pi / 3.0)
# A pair's phi and half its shorter arc agree to 6e-16 today.
PHI_TOL = 1e-10
# Chart values printed with 12 significant digits, or recomputed in-process.
VALUE_TOL = 1e-9
# Homotopy types: exp_2 ~ S^1 (the closed Moebius band), exp_3 ~ S^3.
SPHERE_DIM = {2: 1, 3: 3}


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def reduced_sphere_betti(dim: int, length: int) -> list[int]:
    """Reduced Betti numbers of S^dim, padded with zeros to the given length."""
    out = [0] * length
    out[dim] = 1
    return out


def sphere_betti(dim: int, length: int) -> list[int]:
    """Betti numbers of S^dim, padded with zeros to the given length."""
    out = reduced_sphere_betti(dim, length)
    out[0] += 1
    return out


def top_simplex_count(k: int, n: int) -> int:
    """Top simplices of the exp_k model: n^k k! torus simplices, each split
    into ((k+1)!)^2 by two barycentric subdivisions, on which S_k acts
    freely."""
    return n**k * math.factorial(k + 1) ** 2


def relative_quotient_betti(x_reduced: list[int], a_reduced: list[int]) -> list[int]:
    """Betti numbers of X/A from the long exact sequence of the pair (X, A).

    Inputs are reduced Betti numbers of free homology.  Where no degree has
    both groups non-zero, every map H_q(A) -> H_q(X) vanishes, so
    rank H_q(X, A) = rank H_q(X) + rank H_{q-1}(A); the base point of the
    quotient restores one rank in degree 0.
    """
    if any(x and a for x, a in zip(x_reduced, a_reduced)):
        raise ValueError("the sequence does not split by degree alone")
    table = [x_reduced[q] + (a_reduced[q - 1] if q else 0) for q in range(len(x_reduced))]
    table[0] += 1
    return table


def check_homology(rec: dict, k: int, n: int) -> list[str]:
    """An absolute `homology k` record at mesh n."""
    bad = []
    betti = sphere_betti(SPHERE_DIM[k], k + 1)
    counts = rec.get("counts") or []
    if (rec.get("k"), rec.get("n"), rec.get("mode")) != (k, n, "absolute"):
        bad.append(f"header {rec.get('k')}, {rec.get('n')}, {rec.get('mode')}")
    if rec.get("betti") != betti:
        bad.append(f"betti {rec.get('betti')} != {betti}")
    if rec.get("torsion") != [[] for _ in range(k + 1)]:
        bad.append(f"torsion {rec.get('torsion')}")
    if len(counts) != k + 1:
        bad.append(f"counts {counts}")
    else:
        alternating = sum((-1) ** d * c for d, c in enumerate(counts))
        chi = sum((-1) ** d * b for d, b in enumerate(betti))
        if not rec.get("euler") == alternating == chi:
            bad.append(f"euler {rec.get('euler')}, alternating sum {alternating}, chi {chi}")
        if counts[-1] != top_simplex_count(k, n):
            bad.append(f"top count {counts[-1]} != {top_simplex_count(k, n)}")
    if rec.get("boundary_check") is not True:
        bad.append("boundary check not reported")
    return bad


def check_relative(rec: dict, n: int) -> list[str]:
    """A `homology 3 --relative` record at mesh n."""
    bad = []
    table = relative_quotient_betti(
        reduced_sphere_betti(SPHERE_DIM[3], 4), reduced_sphere_betti(SPHERE_DIM[2], 4)
    )
    if (rec.get("k"), rec.get("n"), rec.get("mode")) != (3, n, "relative"):
        bad.append(f"header {rec.get('k')}, {rec.get('n')}, {rec.get('mode')}")
    if rec.get("betti") != table:
        bad.append(f"betti {rec.get('betti')} != {table}")
    if rec.get("torsion") != [[], [], [], []]:
        bad.append(f"torsion {rec.get('torsion')}")
    if rec.get("match") is not True:
        bad.append("oracle match not reported")
    return bad


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def shorter_arc(a: float, b: float) -> float:
    d = math.fmod(a - b, TWO_PI) % TWO_PI
    return min(d, TWO_PI - d)


def check_chart(rec: dict, case: dict) -> list[str]:
    """A chart record as `coord` computes it, against the generated case.

    ``case`` holds the input angles, the number of distinct points the
    generator made (None for the near-coincident triples, which may be
    charted as triples or merged into pairs) and its kind.
    """
    bad = []
    angles, distinct, kind = case["angles"], case["distinct"], case["kind"]
    tag = rec.get("tag")
    allowed = {"C2", "C3"} if distinct is None else {f"C{distinct}"}
    if tag not in allowed:
        return [f"tag {tag} for {len(set(angles))} input angles, expected {sorted(allowed)}"]
    if tag == "C1":
        if shorter_arc(rec["alpha"], angles[0]) > PHI_TOL or not 0.0 <= rec["alpha"] < TWO_PI:
            bad.append(f"alpha {rec['alpha']!r} for angle {angles[0]!r}")
    elif tag == "C2":
        # the arc of the closest two points is the merged one of a
        # near-coincident triple charted as a pair; measure from the other
        i, j = min(combinations(range(len(angles)), 2),
                   key=lambda ij: shorter_arc(angles[ij[0]], angles[ij[1]]))
        lone = angles[3 - i - j] if len(angles) == 3 else angles[j]
        half = 0.5 * shorter_arc(lone, angles[i])
        tol = PHI_TOL if distinct else 1e-8
        if abs(rec["phi"] - half) > tol:
            bad.append(f"phi {rec['phi']!r} != half shorter arc {half!r}")
        if kind == "antipodal" and not 0.0 <= rec["theta"] < math.pi:
            bad.append(f"core theta {rec['theta']!r} outside [0, pi)")
    else:
        z, orbit = rec["z"], rec["orbit"]
        if not z.imag > 0.0:
            bad.append(f"z {z!r} not in the upper half-plane")
        if kind == "equal" and abs(z - EXCEPTIONAL_Z) > VALUE_TOL:
            bad.append(f"equally spaced triple has z {z!r}")
        if len(orbit) != 3 or not any(
            abs(z - w) <= VALUE_TOL and shorter_arc(rec["theta"], t) <= VALUE_TOL for w, t in orbit
        ):
            bad.append("chart is not a member of its orbit")
    return bad


def charts_agree(rec: dict, other: dict) -> list[str]:
    """Two chart records of one subset, given with its angles reordered."""
    if rec.get("tag") != other.get("tag"):
        return [f"tag {rec.get('tag')} != {other.get('tag')} after reordering"]
    if rec["tag"] == "C1":
        diffs = [shorter_arc(rec["alpha"], other["alpha"])]
    elif rec["tag"] == "C2":
        diffs = [abs(rec["phi"] - other["phi"]), shorter_arc(rec["theta"], other["theta"])]
    else:
        diffs = [abs(rec["z"] - other["z"]), shorter_arc(rec["theta"], other["theta"])]
    if max(diffs) > VALUE_TOL:
        return [f"chart moved by {max(diffs):.3g} after reordering the input"]
    return []


def check_coord_exceptional(rec: dict) -> list[str]:
    """A printed `coord` record of an equally spaced triple."""
    z = complex(rec.get("z", {}).get("re", math.nan), rec.get("z", {}).get("im", math.nan))
    bad = []
    if rec.get("tag") != "C3" or not abs(z - EXCEPTIONAL_Z) <= VALUE_TOL:
        bad.append(f"equally spaced triple printed as {rec.get('tag')} z={z!r}")
    if rec.get("exceptional") is not True:
        bad.append("equally spaced triple not flagged exceptional")
    if len(rec.get("orbit", ())) != 3:
        bad.append("orbit does not list three frames")
    return bad


# ---------------------------------------------------------------------------
# knot curves
# ---------------------------------------------------------------------------

def check_knot(text: str, eps: float, samples: int, core: bool) -> list[str]:
    """CSV output of `knot` (band curve) or `knot --core`."""
    lines = text.splitlines()
    phi = math.pi / 2 if core else math.pi / 2 - eps
    sep = math.pi if core else math.pi - 2.0 * eps
    windings = "windings: (1, 0)" if core else "windings: (2, 3)"
    if not lines or lines[0] != "index,angle1,angle2,phi,theta":
        return ["missing CSV header"]
    rows = lines[1:-1]
    bad = []
    if lines[-1] != windings:
        bad.append(f"{lines[-1]!r} != {windings!r}")
    if len(rows) != samples + 1:
        bad.append(f"{len(rows)} samples, expected {samples + 1}")
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 5 or fields[0] != str(i):
            bad.append(f"malformed sample {row!r}")
            break
        a1, a2, p = float(fields[1]), float(fields[2]), float(fields[3])
        if abs(p - phi) > PHI_TOL or abs(shorter_arc(a1, a2) - sep) > PHI_TOL:
            bad.append(f"sample {i} off the locus: phi {p!r}, expected {phi!r}")
            break
    return bad


# ---------------------------------------------------------------------------
# group certificates
# ---------------------------------------------------------------------------

def parse_presentation(text: str) -> tuple[list[str], list[list[int]]]:
    """Read the printed form ``gens: a b; rels: a^2 b^-1, a b`` into
    generator names and relators as letter lists (+-(index + 1))."""
    gens_part, rels_part = text.split(";")
    head, _, names = gens_part.partition(":")
    if head.strip() != "gens":
        raise ValueError(f"not a presentation: {text!r}")
    gens = names.split()
    rels = []
    for rel in rels_part.partition(":")[2].split(","):
        word = []
        for token in rel.split():
            name, _, power = token.partition("^")
            letter = gens.index(name) + 1
            count = int(power) if power else 1
            word += [letter if count > 0 else -letter] * abs(count)
        if word:
            rels.append(word)
    return gens, rels


def _rank_and_minor_gcd(rows: list[list[int]]) -> tuple[int, int]:
    """Rank of an integer matrix and the gcd of its rank-sized minors."""
    def det(m):
        m = [[Fraction(x) for x in r] for r in m]
        sign, out = 1, Fraction(1)
        for c in range(len(m)):
            piv = next((r for r in range(c, len(m)) if m[r][c]), None)
            if piv is None:
                return 0
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                sign = -sign
            out *= m[c][c]
            for r in range(c + 1, len(m)):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return int(sign * out)

    ncols = len(rows[0]) if rows else 0
    for size in range(min(len(rows), ncols), 0, -1):
        g = 0
        for rs in combinations(range(len(rows)), size):
            for cs in combinations(range(ncols), size):
                g = math.gcd(g, det([[rows[r][c] for c in cs] for r in rs]))
        if g:
            return size, g
    return 0, 1


def abelian_rank(gens: list[str], rels: list[list[int]]) -> tuple[int, bool]:
    """Free rank of the abelianization and whether it is torsion-free."""
    rows = [[sum((x > 0) - (x < 0) for x in w if abs(x) == g + 1) for g in range(len(gens))]
            for w in rels]
    rank, minor_gcd = _rank_and_minor_gcd(rows)
    return len(gens) - rank, minor_gcd == 1


def _s3():
    elems = list(permutations(range(3)))
    return elems, lambda p, q: tuple(p[q[i]] for i in range(3))


def count_homs_to_s3(gens: list[str], rels: list[list[int]]) -> int:
    """Homomorphisms into S_3, by trying every image of the generators."""
    elems, mul = _s3()
    inverse = {p: next(q for q in elems if mul(p, q) == (0, 1, 2)) for p in elems}
    count = 0
    for images in product(elems, repeat=len(gens)):
        ok = True
        for w in rels:
            cur = (0, 1, 2)
            for x in w:
                img = images[abs(x) - 1]
                cur = mul(cur, img if x > 0 else inverse[img])
            if cur != (0, 1, 2):
                ok = False
                break
        count += ok
    return count


def _syllables(word: list[int]) -> list[tuple[int, int]]:
    """Cyclic syllables (generator, exponent) of a cyclically reduced word."""
    if not word:
        return []
    start = next((i for i in range(len(word)) if word[i] != word[i - 1]), 0)
    word = word[start:] + word[:start]
    out: list[tuple[int, int]] = []
    for x in word:
        if out and out[-1][0] == abs(x):
            out[-1] = (abs(x), out[-1][1] + (1 if x > 0 else -1))
        else:
            out.append((abs(x), 1 if x > 0 else -1))
    return out


def check_pi1(case: str, rec: dict) -> list[str]:
    """A `pi1 <case>` record."""
    bad = []
    try:
        gens, rels = parse_presentation(rec["simplified"])
        a_gens, a_rels = parse_presentation(rec["assembled"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable presentation: {exc}"]
    cert = rec.get("certificate", {})
    if case == "exp3":
        if not (cert.get("conclusive") is True and cert.get("order") == 1 and cert.get("cosets") == 1):
            bad.append(f"certificate {cert} is not a conclusive order-1 table")
        if gens or rels:
            bad.append(f"simplified {rec['simplified']!r} is not the trivial presentation")
        if abelian_rank(a_gens, a_rels) != (0, True):
            bad.append("assembled presentation has non-trivial abelianization")
    elif case == "Bprime":
        if cert.get("matches_expected") is not True or cert.get("abelianization") != "Z + Z":
            bad.append(f"certificate {cert}")
        if abelian_rank(gens, rels) != (2, True):
            bad.append("simplified presentation does not abelianize to Z^2")
    else:
        shape = sorted((abs(e), g) for g, e in _syllables(rels[0])) if len(rels) == 1 else []
        if len(gens) != 2 or len(shape) != 2 or [e for e, _ in shape] != [2, 3] or shape[0][1] == shape[1][1]:
            bad.append(f"simplified {rec['simplified']!r} is not <s, t | s^3 t^-2> up to renaming")
        homs = count_homs_to_s3(gens, rels)
        unknot = count_homs_to_s3(["a"], [])
        if (homs, unknot) != (12, 6) or cert.get("homs_to_S3") != homs:
            bad.append(f"homs to S3: printed {cert.get('homs_to_S3')}, counted {homs}, unknot {unknot}")
        if cert.get("homs_to_S3_unknot") != unknot or cert.get("distinguishes_unknot") is not True:
            bad.append(f"unknot comparison {cert}")
        if abelian_rank(gens, rels) != (1, True) or cert.get("abelianization") != "Z":
            bad.append("complement does not abelianize to Z")
    return bad


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def _knot_csv(eps: float, samples: int, core: bool, shift: float = 0.0, windings=None) -> str:
    sep = math.pi if core else math.pi - 2.0 * eps
    phi = math.pi / 2 if core else math.pi / 2 - eps
    step = (math.pi if core else TWO_PI) / samples
    rows = ["index,angle1,angle2,phi,theta"]
    for i in range(samples + 1):
        a = i * step
        rows.append(f"{i},{a:.12g},{a + sep:.12g},{phi + shift:.12g},0")
    rows.append(windings or ("windings: (1, 0)" if core else "windings: (2, 3)"))
    return "\n".join(rows) + "\n"


def _with(rec: dict, **changes) -> dict:
    out = dict(rec)
    out.update(changes)
    return out


def self_test() -> list[str]:
    """Run every check on a correct record and on wrong ones.

    Returns a description of each correct record that was rejected and each
    wrong record that was accepted; an empty list means the checks work.
    """
    absolute = {"k": 3, "n": 3, "mode": "absolute", "counts": [2836, 18388, 31104, 15552],
                "euler": 0, "betti": [1, 0, 0, 1], "torsion": [[], [], [], []],
                "boundary_check": True}
    exp2 = {"k": 2, "n": 3, "mode": "absolute", "counts": [168, 492, 324], "euler": 0,
            "betti": [1, 1, 0], "torsion": [[], [], []], "boundary_check": True}
    relative = {"k": 3, "n": 3, "mode": "relative", "betti": [1, 0, 1, 1],
                "torsion": [[], [], [], []], "match": True}
    pair = {"angles": [0.5, 2.5], "distinct": 2, "kind": "random"}
    pair_rec = {"tag": "C2", "phi": 1.0, "theta": 0.3}
    eq = {"angles": [0.0, TWO_PI / 3, 2 * TWO_PI / 3], "distinct": 3, "kind": "equal"}
    eq_rec = {"tag": "C3", "z": EXCEPTIONAL_Z, "theta": 0.2,
              "orbit": [(EXCEPTIONAL_Z, 0.2), (EXCEPTIONAL_Z, 1.0), (EXCEPTIONAL_Z, 2.0)]}
    single = {"angles": [7.0], "distinct": 1, "kind": "random"}
    single_rec = {"tag": "C1", "alpha": 7.0 - TWO_PI}
    printed_eq = {"tag": "C3", "z": {"re": 0.5, "im": math.sqrt(3) / 2}, "theta": 0.2,
                  "exceptional": True, "orbit": [{}, {}, {}]}
    pi1 = {
        "exp3": {"assembled": "gens: s t; rels: s^3 t^-2, s t^-1", "simplified": "gens: ; rels: ",
                 "certificate": {"order": 1, "conclusive": True, "cosets": 1}},
        "Bprime": {"assembled": "gens: a b c; rels: a b a^-1 b^-1, a c^-2",
                   "simplified": "gens: b c; rels: c^2 b c^-2 b^-1",
                   "certificate": {"matches_expected": True, "abelianization": "Z + Z"}},
        "complement": {"assembled": "gens: s t u; rels: s^3 t^-2, s u^-1",
                       "simplified": "gens: t u; rels: u^3 t^-2",
                       "certificate": {"matches_expected": True, "abelianization": "Z",
                                       "homs_to_S3": 12, "homs_to_S3_unknot": 6,
                                       "distinguishes_unknot": True}},
    }
    cert = pi1["complement"]["certificate"]

    good = [
        ("absolute record", lambda: check_homology(absolute, 3, 3)),
        ("exp2 record", lambda: check_homology(exp2, 2, 3)),
        ("relative record", lambda: check_relative(relative, 3)),
        ("pair chart", lambda: check_chart(pair_rec, pair)),
        ("singleton chart", lambda: check_chart(single_rec, single)),
        ("equally spaced chart", lambda: check_chart(eq_rec, eq)),
        ("printed exceptional triple", lambda: check_coord_exceptional(printed_eq)),
        ("reordered chart", lambda: charts_agree(eq_rec, dict(eq_rec))),
        ("band knot", lambda: check_knot(_knot_csv(0.1, 64, False), 0.1, 64, False)),
        ("core knot", lambda: check_knot(_knot_csv(0.1, 64, True), 0.1, 64, True)),
    ] + [(f"pi1 {c}", lambda c=c: check_pi1(c, pi1[c])) for c in pi1]
    wrong = [
        ("betti [1,0,0,0]", lambda: check_homology(_with(absolute, betti=[1, 0, 0, 0]), 3, 3)),
        ("torsion in H1", lambda: check_homology(_with(absolute, torsion=[[], [2], [], []]), 3, 3)),
        ("top count off by one",
         lambda: check_homology(_with(absolute, counts=[2836, 18388, 31105, 15553]), 3, 3)),
        ("euler off", lambda: check_homology(_with(absolute, euler=2), 3, 3)),
        ("exp2 betti of a point", lambda: check_homology(_with(exp2, betti=[1, 0, 0]), 2, 3)),
        ("relative table of S3", lambda: check_relative(_with(relative, betti=[1, 0, 0, 1]), 3)),
        ("relative torsion", lambda: check_relative(_with(relative, torsion=[[], [2], [], []]), 3)),
        ("relative mismatch", lambda: check_relative(_with(relative, match=False), 3)),
        ("pair phi shifted by 1e-6", lambda: check_chart(_with(pair_rec, phi=1.0 + 1e-6), pair)),
        ("pair tagged as triple", lambda: check_chart(_with(eq_rec), pair)),
        ("singleton angle moved", lambda: check_chart(_with(single_rec, alpha=0.72), single)),
        ("equally spaced z moved",
         lambda: check_chart(_with(eq_rec, z=EXCEPTIONAL_Z + 1e-6,
                                   orbit=[(EXCEPTIONAL_Z + 1e-6, 0.2)] * 3), eq)),
        ("chart outside its orbit", lambda: check_chart(_with(eq_rec, theta=0.3), eq)),
        ("not flagged exceptional",
         lambda: check_coord_exceptional(_with(printed_eq, exceptional=False))),
        ("chart moved by reordering",
         lambda: charts_agree(pair_rec, _with(pair_rec, theta=0.3 + 1e-6))),
        ("windings (2, 2)",
         lambda: check_knot(_knot_csv(0.1, 64, False, windings="windings: (2, 2)"), 0.1, 64, False)),
        ("band samples off the locus",
         lambda: check_knot(_knot_csv(0.1, 64, False, shift=1e-6), 0.1, 64, False)),
        ("core windings (1, 1)",
         lambda: check_knot(_knot_csv(0.1, 64, True, windings="windings: (1, 1)"), 0.1, 64, True)),
        ("pi1 exp3 of order 2",
         lambda: check_pi1("exp3", _with(pi1["exp3"], certificate={"order": 2, "conclusive": True,
                                                                   "cosets": 2}))),
        ("pi1 exp3 Z/3",
         lambda: check_pi1("exp3", _with(pi1["exp3"], assembled="gens: s t; rels: s^3, s t^-1"))),
        ("pi1 Bprime abelian rank 1",
         lambda: check_pi1("Bprime", _with(pi1["Bprime"], simplified="gens: b c; rels: c^2 b"))),
        ("pi1 complement s^3 t^-3",
         lambda: check_pi1("complement", _with(pi1["complement"],
                                               simplified="gens: t u; rels: u^3 t^-3"))),
        ("pi1 complement 6 homs",
         lambda: check_pi1("complement", _with(pi1["complement"],
                                               certificate=_with(cert, homs_to_S3=6)))),
    ]
    failures = [f"correct {name} rejected: {problems}" for name, run in good if (problems := run())]
    failures += [f"wrong record accepted: {name}" for name, run in wrong if not run()]
    return failures
