"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from expcircle.complexes import (
    AbelianInvariants,
    build_exp_model,
    homology,
    relative_quotient_homology,
    rp3_collapse_oracle,
)
from expcircle.config import (
    EXCEPTIONAL_POINT,
    FiniteSubset,
    boundary_torus_curve,
    c3_coord,
    c3_orbit,
    edge_collapse_limit,
    hausdorff_distance,
    loop_b,
    pair_frame,
    rotate,
    to_boundary,
    triple_coalescence_path,
    winding_diagnostic,
)
from expcircle.groups import (
    abelianization,
    coset_enumeration,
    count_homs,
    parse_presentation,
    pushout,
    pushout_band_piece,
    pushout_complement,
    pushout_exp3,
    symmetric_group,
    tietze_simplify,
)
from expcircle.moebius import (
    angle_dist,
    apply_interior,
    compose,
    frame,
    gamma,
    identity,
    norm_angle,
    sigma,
    tau,
)
from test_config import c2_chart_raw  # the object-path pair chart


def _criterion(num, desc, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL ({time.perf_counter() - t0:.2f}s) {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS ({time.perf_counter() - t0:.2f}s) {desc}")


def _same_map(s, t):
    return (s.a, s.b, s.c, s.d) == pytest.approx((t.a, t.b, t.c, t.d), rel=0, abs=1e-12)


def test_criterion_1_group_laws():
    def body():
        t0 = time.perf_counter()
        rng = random.Random(101)
        g = gamma()
        assert _same_map(compose(g, compose(g, g)), identity())
        assert _same_map(compose(tau(), tau()), identity())
        for _ in range(1000):
            lam = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            mu = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            assert _same_map(compose(tau(), compose(sigma(lam), tau())), sigma(1.0 / lam))
            assert _same_map(compose(sigma(lam), sigma(mu)), sigma(lam * mu))
            z = complex(rng.uniform(-5, 5), math.exp(rng.uniform(-2, 2)))
            r2 = z / abs(z) ** 2
            assert abs(apply_interior(g, z) - (1 - r2.conjugate())) < 1e-12
        assert time.perf_counter() - t0 < 1.0

    _criterion(1, "group laws, torsion relations, double-reflection form", body)


def test_criterion_2_chart_well_definedness():
    def body():
        t0 = time.perf_counter()
        rng = random.Random(102)
        from itertools import permutations

        done = 0
        while done < 1000:
            angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(3))
            gaps = [angles[1] - angles[0], angles[2] - angles[1],
                    2 * math.pi - angles[2] + angles[0]]
            if min(gaps) < 1e-3:
                continue
            ref = c3_coord(FiniteSubset(angles))
            for perm in permutations(angles):
                c = c3_coord(FiniteSubset(perm))
                assert abs(c.z - ref.z) <= 1e-9
                assert angle_dist(c.theta, ref.theta) <= 1e-9
            done += 1
        done = 0
        while done < 1000:
            a1, a2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            if angle_dist(a1, a2) < 1e-3:
                continue
            p, r = to_boundary(a1), to_boundary(a2)
            phi, theta = c2_chart_raw(p, r)
            phi2, theta2 = c2_chart_raw(r, p)
            assert abs(phi2 - (math.pi - phi)) <= 1e-9
            assert angle_dist(theta2, theta - 2 * phi) <= 1e-9
            done += 1
        assert time.perf_counter() - t0 < 5.0

    _criterion(2, "chart well-definedness and the band identification", body)


def test_criterion_3_exceptional_fibre_twist():
    def body():
        for shift in (0.0, 0.3, 1.7, 4.0):
            s = FiniteSubset([shift, shift + 2 * math.pi / 3, shift + 4 * math.pi / 3])
            orbit = c3_orbit(s)
            for f in orbit:
                assert abs(f.z - EXCEPTIONAL_POINT) <= 1e-9
            thetas = sorted(f.theta for f in orbit)
            for a, b in zip(thetas, thetas[1:]):
                assert abs((b - a) - 2 * math.pi / 3) <= 1e-9

    _criterion(3, "orbit spacing 2*pi/3 on the exceptional fibre", body)


def test_criterion_4_coalescence():
    def body():
        rng = random.Random(104)
        done = 0
        while done < 100:
            p = rng.uniform(-5, 5)
            r = p + rng.uniform(0.5, 5.0)
            if abs(1 + p * r) < 1e-3:
                continue
            path = triple_coalescence_path(to_boundary(2 * math.atan(p)),
                                           to_boundary(2 * math.atan(r)))
            expect = (p - r) / (1 + p * r)
            assert abs(path.slope - expect) / abs(expect) < 1e-9
            zs = [path.sample_z(to_boundary(2 * math.atan(r - d)))
                  for d in (1e-4, 2e-4, 3e-4)]
            fitted = sum(z.real * z.imag for z in zs) / sum(z.real**2 for z in zs)
            assert abs(fitted - expect) / abs(expect) < 1e-6
            done += 1
        for _ in range(100):
            rv = rng.uniform(-3, 3)
            z = pair_frame(to_boundary(2 * math.atan(rv + 1e-7)),
                           to_boundary(2 * math.atan(rv))).z
            assert abs(z - 1.0) < 1e-6
        for alpha in (0.5, 2.0, 5.5):
            # gaps below the distinctness tolerance (DISTINCT_TOL) would merge points
            seq = [FiniteSubset([alpha - e, alpha, alpha + e])
                   for e in (1e-1, 1e-3, 1e-6, 1e-8)]
            out = edge_collapse_limit(seq, tol=1e-7)
            assert out.tag == "C1"
            assert hausdorff_distance(seq[-1], FiniteSubset([out.c1])) < 1e-7

    _criterion(4, "coalescence slopes, pair limit, edge collapse", body)


@pytest.mark.slow
def test_criterion_5_homology_of_subset_spaces():
    def body():
        t0 = time.perf_counter()
        h2 = homology(build_exp_model(2, 3).complex)
        assert h2.betti == [1, 1, 0] and all(t == () for t in h2.torsion)
        for n in (3, 4):
            h3 = homology(build_exp_model(3, n).complex)
            assert h3.betti == [1, 0, 0, 1]
            assert all(t == () for t in h3.torsion)
        assert time.perf_counter() - t0 < 300.0

    _criterion(5, "sphere homology pattern at n = 3 and n = 4; band for pairs", body)


@pytest.mark.slow
def test_criterion_6_relative_quotient_oracle():
    def body():
        assert relative_quotient_homology(3) == rp3_collapse_oracle()

    _criterion(6, "collapsed pair stratum matches the projective-space oracle", body)


def test_criterion_7_pi1_pipeline():
    def body():
        full = pushout(pushout_exp3())
        cert = coset_enumeration(full, coset_limit=100)
        assert cert.conclusive and cert.order == 1
        assert cert.verify(full)

        band = tietze_simplify(pushout(pushout_band_piece())).presentation
        assert band == parse_presentation("gens: b c; rels: c^2 b c^-2 b^-1")

        comp = tietze_simplify(pushout(pushout_complement())).presentation
        assert comp == parse_presentation("gens: t u; rels: u^3 t^-2")
        assert abelianization(comp) == AbelianInvariants(1, ())
        s3 = symmetric_group(3)
        assert count_homs(comp, s3) == 12
        assert count_homs(parse_presentation("gens: a; rels:"), s3) == 6

    _criterion(7, "pushout certificates: trivial pi_1, band piece, knot group", body)


def test_criterion_8_knot_windings():
    def body():
        reference = None
        for eps in (0.05, 0.1, 0.2):
            per_samples = []
            for samples in (360, 1440):
                w = winding_diagnostic(boundary_torus_curve(eps, samples))
                assert (abs(w[0]), abs(w[1])) == (2, 3)
                per_samples.append(w)
            assert per_samples[0] == per_samples[1]
            reference = reference or per_samples[0]
            assert per_samples[0] == reference

    _criterion(8, "boundary curve winds (2, 3), stable in eps and sampling", body)


def test_criterion_9_meridional_loop():
    def body():
        rng = random.Random(109)
        done = 0
        while done < 50:
            s = FiniteSubset(sorted(rng.uniform(0, 2 * math.pi) for _ in range(3)))
            if s.size != 3:
                continue
            loop = loop_b(s, samples=64)
            assert hausdorff_distance(loop.subsets[0], loop.subsets[-1]) <= 1e-9
            done += 1
        eq = FiniteSubset([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
        loop = loop_b(eq, samples=120)
        for k, subset in enumerate(loop.subsets):
            target = rotate(k / 120 * 2 * math.pi / 3, eq)
            assert hausdorff_distance(subset, target) <= 1e-9

    _criterion(9, "meridional loop closes; equals fibre rotation when equilateral", body)


def test_criterion_10_cli_determinism():
    def body():
        cases = [
            ("coord", "0.25", "1.5", "4.0"),
            ("--eps", "0.1", "--samples", "360", "knot"),
            ("--mesh-n", "3", "homology", "2"),
            ("pi1", "exp3"),
            ("pi1", "complement"),
        ]
        for case in cases:
            runs = [
                subprocess.run([sys.executable, "-m", "expcircle", *case],
                               capture_output=True)
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout  # nonempty

    _criterion(10, "byte-reproducible command-line runs", body)
