import cmath
import copy
import math
import pickle
import random
import re
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from expcircle import cli, config
from expcircle.complexes import build_exp_model
from expcircle.config import (
    DISTINCT_TOL,
    EXCEPTIONAL_POINT,
    C2Coord,
    Exp3Coord,
    FiniteSubset,
    SampledLoop,
    boundary_torus_curve,
    c2_coord,
    c3_coord,
    c3_orbit,
    core_circle,
    edge_collapse_limit,
    exp3_coord,
    fold_to_domain,
    hausdorff_distance,
    loop_a,
    loop_b,
    normalize_pair,
    normalize_triple,
    pair_coalescence_limit,
    pair_frame,
    rotate,
    to_boundary,
    triple_coalescence_path,
    winding_diagnostic,
)
from expcircle.moebius import (
    ANGLE_TOL,
    TWO_PI,
    BoundaryPoint,
    Frame,
    MoebiusMap,
    apply_boundary,
    canonical_entries,
    cross,
    frame,
    gamma,
    gamma_orbit,
    identity,
    compose,
    norm_angle,
    angle_dist,
)

B = BoundaryPoint.from_real
INF = BoundaryPoint.infinity()


def _same_point(p, q):
    return (p.a, p.b) == pytest.approx((q.a, q.b), rel=0, abs=ANGLE_TOL)


def _same_map(s, t):
    return (s.a, s.b, s.c, s.d) == pytest.approx((t.a, t.b, t.c, t.d), rel=0, abs=1e-12)


def _same_subset(s, t):
    return s.size == t.size and hausdorff_distance(s, t) <= ANGLE_TOL


def from_boundary(x: BoundaryPoint) -> float:
    """Inverse of to_boundary, with values in [0, 2*pi)."""
    return norm_angle(2.0 * math.atan2(x.a, x.b))


def c2_chart_raw(p: BoundaryPoint, r: BoundaryPoint) -> tuple[float, float]:
    """Pre-canonical band coordinates (phi, theta) of the ordered pair (p, r),
    through the objects: the reference for config.c2_coord's float path."""
    f = frame(normalize_pair(p, r))
    return (cmath.phase(f.z), f.theta)


def c3_coord_orbit(c: Frame) -> tuple[Frame, Frame, Frame]:
    """The gamma-orbit of a triple chart point, starting at the point."""
    return gamma_orbit(c)


def c3_distance(x: Frame, y: Frame) -> float:
    """Orbit-aware chart distance: the least over y's representatives."""
    return min(max(abs(x.z - g.z), angle_dist(x.theta, g.theta)) for g in c3_coord_orbit(y))


# ---------------------------------------------------------------------------
# model transfer
# ---------------------------------------------------------------------------

def test_boundary_model_anchors():
    assert _same_point(to_boundary(0.0), B(0.0))
    assert to_boundary(math.pi).is_infinity()
    assert _same_point(to_boundary(math.pi / 2), B(1.0))
    assert _same_point(to_boundary(3 * math.pi / 2), B(-1.0))


def test_boundary_roundtrip():
    rng = random.Random(3)
    for _ in range(1000):
        a = rng.uniform(0, 2 * math.pi)
        assert angle_dist(from_boundary(to_boundary(a)), a) < 1e-12


def test_boundary_model_is_monotone():
    # counterclockwise angles run through the reals in increasing order,
    # passing through infinity (at angle pi) between the positives and the
    # negatives
    reals = [0.0, 2.0, 100.0, -5.0, -1.0]
    angles = [from_boundary(B(x)) for x in reals]
    assert angles == sorted(angles)
    assert angles[2] < math.pi < angles[3]
    vals = [to_boundary(a) for a in (0.1, 0.2, 0.3)]
    assert vals[0].value() < vals[1].value() < vals[2].value()


# ---------------------------------------------------------------------------
# subsets
# ---------------------------------------------------------------------------

def test_subset_collapses_repeats():
    s = FiniteSubset([1.0, 1.0 + 1e-12, 2.0])
    assert s.size == 2
    s = FiniteSubset([1e-12, 2 * math.pi - 1e-12])  # wraparound repeat
    assert s.size == 1
    with pytest.raises(ValueError):
        FiniteSubset([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        FiniteSubset([])


def test_near_coincident_subsets_chart():
    # every subset the merge keeps distinct can be put in normal form
    for angles in ((0.0, 2e-9, 3.0), (1.0, 1.0 + 1.5e-9, 4.0),
                   (0.5, 3.0, 3.0 + 1.9e-9), (5.0, 2.0, 5.0 + 1.2e-9)):
        s = FiniteSubset(angles)
        assert s.size in (2, 3)
        assert exp3_coord(s).tag == f"C{s.size}"
    rng = random.Random(11)
    for _ in range(500):
        base = rng.uniform(-10.0, 10.0)
        gap = DISTINCT_TOL * rng.choice((1.0 + 1e-9, 1.01, 1.5, 3.0))
        s = FiniteSubset([base, base + gap, base + rng.uniform(0.1, 6.0)])
        assert exp3_coord(s).tag == f"C{s.size}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_subset_rejects_non_finite_angles(bad):
    # wherever it stands, a non-finite angle is neither dropped nor kept
    for angles in ([], [1.0], [1.0, 2.0], [1.0, 2.0, 4.0]):
        for i in range(len(angles) + 1):
            with pytest.raises(ValueError, match=f"angle must be finite, got {bad!r}$"):
                FiniteSubset(angles[:i] + [bad] + angles[i:])
    with pytest.raises(ValueError, match="must be finite"):
        FiniteSubset(a + bad for a in (0.5, 1.5))  # a generator, as rotate builds


def test_subset_is_read_only():
    s = FiniteSubset([0.3, 2.0, 4.0])
    orbit = c3_orbit(s)
    for name, value in (("angles", (0.1,)), ("_orbit", None), ("extra", 0)):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(s, name, value)
    for name in ("angles", "_orbit"):
        with pytest.raises(AttributeError, match="read-only"):
            delattr(s, name)
    assert s.angles == (0.3, 2.0, 4.0) and c3_orbit(s) is orbit
    for twin in (copy.copy(s), pickle.loads(pickle.dumps(s))):
        assert twin.angles == s.angles and c3_orbit(twin) == orbit


def test_triple_is_charted_once(monkeypatch):
    calls = []
    triple_matrix = config._triple_matrix

    def counting(*pairs):
        calls.append(pairs)
        return triple_matrix(*pairs)

    monkeypatch.setattr(config, "_triple_matrix", counting)
    s = FiniteSubset([4.0, 0.3, 2.0])
    coord = exp3_coord(s)
    orbit = c3_orbit(s)
    assert c3_orbit(s) is orbit and len(calls) == 1
    assert (coord.c3.z, coord.c3.theta) in orbit
    twin = FiniteSubset([0.3, 2.0, 4.0])
    assert c3_orbit(twin) == orbit and len(calls) == 2
    pair = FiniteSubset([0.3, 2.0])
    for _ in range(2):
        with pytest.raises(ValueError, match="exactly 3 points"):
            c3_orbit(pair)
    assert len(calls) == 2


def test_charts_build_no_boundary_point_or_map(monkeypatch):
    built = []
    for cls in (BoundaryPoint, MoebiusMap):
        def counting(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    pairs = ([0.3, 2.0], [0.0, math.pi], [math.pi, 5.0])
    triples = ([4.0, 0.3, 2.0], [0.0, TWO_PI / 3, 2 * TWO_PI / 3], [0.5, math.pi, 6.0])
    for angles in pairs + triples:
        exp3_coord(FiniteSubset(angles))
    for angles in triples:
        assert len(c3_orbit(FiniteSubset(angles))) == 3
    with pytest.raises(ValueError, match="exactly 3 points"):
        c3_orbit(FiniteSubset(pairs[0]))
    assert built == []
    normalize_triple(*map(to_boundary, triples[0]))  # the counters count
    assert built == ["BoundaryPoint"] * 3 + ["MoebiusMap"]


def test_hausdorff_examples():
    assert hausdorff_distance(FiniteSubset([0.0]), FiniteSubset([math.pi])) == pytest.approx(math.pi)
    assert hausdorff_distance(FiniteSubset([0.0, math.pi]), FiniteSubset([0.0])) == pytest.approx(math.pi)
    s = FiniteSubset([0.3, 2.0, 4.0])
    assert hausdorff_distance(s, s) == 0.0


def test_rotate():
    s = FiniteSubset([0.1, 1.0, 2.0])
    assert _same_subset(rotate(0.0, s), s)
    eq = FiniteSubset([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    assert _same_subset(rotate(2 * math.pi / 3, eq), eq)
    rng = random.Random(5)
    for _ in range(200):
        a = FiniteSubset([rng.uniform(0, 6.28) for _ in range(3)])
        b = FiniteSubset([rng.uniform(0, 6.28) for _ in range(2)])
        zeta = rng.uniform(0, 6.28)
        d0 = hausdorff_distance(a, b)
        d1 = hausdorff_distance(rotate(zeta, a), rotate(zeta, b))
        assert abs(d0 - d1) < 1e-9
        assert rotate(zeta, a).size == a.size  # the action preserves strata


# ---------------------------------------------------------------------------
# property tests: the charts under permutation and rotation
# ---------------------------------------------------------------------------

# gaps within 10x of the merge threshold, ordinary gaps, and near-antipodal
# pairs, which sit on the band's core where the chart folds
NEAR_GAPS = st.floats(1.001, 10.0).map(lambda f: f * DISTINCT_TOL)
FAR_GAPS = st.floats(1e-3, 3.0)
ANTIPODAL_GAPS = st.floats(-1e-8, 1e-8).map(lambda f: math.pi + f)


@st.composite
def subset_angles(draw):
    """One to three angles whose gaps stay clear of the merge threshold."""
    pts = [draw(st.floats(0.0, 2 * math.pi, exclude_max=True))]
    size = draw(st.integers(1, 3))
    for _ in range(size - 1):
        gaps = NEAR_GAPS | FAR_GAPS | ANTIPODAL_GAPS if size == 2 else NEAR_GAPS | FAR_GAPS
        pts.append(pts[-1] + draw(gaps))
    return pts


def _hyperbolic_dist(z, w):
    return math.acosh(1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag))


def _min_gap(s):
    a = s.angles
    return min(angle_dist(x, y) for i, x in enumerate(a) for y in a[i + 1:])


def _band_dist(a, phi, theta):
    # the band identifies (phi, theta) with (pi - phi, theta - 2 phi)
    return min(max(abs(a.phi - p), angle_dist(a.theta, t))
               for p, t in ((phi, theta), (math.pi - phi, theta - 2 * phi)))


@given(subset_angles())
def test_charts_invariant_under_permutation(angles):
    ref = exp3_coord(FiniteSubset(angles))
    for perm in permutations(angles):
        s = FiniteSubset(perm)
        assert exp3_coord(s) == ref
        if s.size == 3:
            assert c3_orbit(s) == c3_orbit(FiniteSubset(angles))


@given(subset_angles(), st.floats(-2 * math.pi, 2 * math.pi))
def test_charts_equivariant_under_rotation(angles, zeta):
    # rotating by zeta keeps the frame point z and turns theta by -zeta, up
    # to rounding.  An angle's rounding error reaches theta magnified by
    # 1 / (smallest gap), and reaches z, in hyperbolic distance, magnified
    # by 1 / (smallest gap * shortest arc holding the subset): in 40 000
    # random triples the products stayed below 2.3e-15 and 7e-15
    s = FiniteSubset(angles)
    r = rotate(zeta, s)
    assert r.size == s.size
    c, cr = exp3_coord(s), exp3_coord(r)
    if s.size == 1:
        assert angle_dist(cr.c1, c.c1 + zeta) <= 1e-12
        return
    gap = _min_gap(s)
    if s.size == 2:
        assert _band_dist(cr.c2, c.c2.phi, c.c2.theta - zeta) <= 1e-12 / gap
        return
    a = s.angles
    arc = 2 * math.pi - max(a[1] - a[0], a[2] - a[1], 2 * math.pi - a[2] + a[0])
    rotated = c3_orbit(r)
    for f in c3_orbit(s):
        assert any(_hyperbolic_dist(f.z, g.z) <= 1e-12 / (gap * arc)
                   and angle_dist(g.theta, f.theta - zeta) <= 1e-12 / gap for g in rotated)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def test_normalize_triple_standard():
    xi = normalize_triple(B(0.0), B(1.0), INF)
    assert _same_map(xi, identity())


def test_normalize_triple_generic():
    xi = normalize_triple(B(-1.0), B(0.0), B(1.0))
    assert _same_point(apply_boundary(xi, B(-1.0)), B(0.0))
    assert _same_point(apply_boundary(xi, B(0.0)), B(1.0))
    assert apply_boundary(xi, B(1.0)).is_infinity()


def test_normalize_triple_through_infinity():
    xi = normalize_triple(B(1.0), INF, B(0.0))
    assert _same_point(apply_boundary(xi, B(1.0)), B(0.0))
    assert _same_point(apply_boundary(xi, INF), B(1.0))
    assert apply_boundary(xi, B(0.0)).is_infinity()
    assert _same_map(xi, gamma())


def test_normalize_triple_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_triple(B(0.0), B(0.0), B(1.0))
    with pytest.raises(ValueError):  # clockwise ordering
        normalize_triple(B(0.0), INF, B(1.0))


def test_normalize_pair():
    assert _same_map(normalize_pair(B(0.0), INF), identity())
    xi = normalize_pair(INF, B(0.0))
    assert _same_point(apply_boundary(xi, INF), B(0.0))
    assert apply_boundary(xi, B(0.0)).is_infinity()
    f = frame(normalize_pair(B(1.0), B(-1.0)))
    assert abs(f.z - 1j) < 1e-12
    assert angle_dist(f.theta, 3 * math.pi / 2) < 1e-12
    with pytest.raises(ValueError):
        normalize_pair(B(2.0), B(2.0))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_c3_coord_standard_triple():
    # angles mapping to the boundary triple (0, 1, oo)
    s = FiniteSubset([0.0, math.pi / 2, math.pi])
    # oracle: enumerate the orbit of frame(identity) and take the lexicographic
    # minimum by (Re z, Im z, theta)
    g = gamma()
    orbit = [frame(identity()), frame(g), frame(compose(g, g))]
    expect = min(orbit, key=lambda f: (f.z.real, f.z.imag, f.theta))
    c = c3_coord(s)
    assert abs(c.z - expect.z) < 1e-12 and angle_dist(c.theta, expect.theta) < 1e-12
    assert abs(c.z - 1j) < 1e-12 and c.theta < 1e-12
    got = {(round(f.z.real, 9), round(f.z.imag, 9), round(f.theta, 9)) for f in c3_orbit(s)}
    want = {(0.0, 1.0, 0.0), (1.0, 1.0, round(math.pi, 9)), (0.5, 0.5, round(math.pi / 2, 9))}
    assert got == want


def test_c3_coord_equilateral():
    s = FiniteSubset([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    c = c3_coord(s)
    assert abs(c.z - EXCEPTIONAL_POINT) < 1e-12
    assert 0.0 <= c.theta < 2 * math.pi / 3 + 1e-12


def test_c3_coord_near_exceptional_fibre_continuity():
    # perturbing an equilateral triple moves z off the exceptional point
    # continuously (linearly in the perturbation)
    dists = []
    for d in (1e-2, 1e-4, 1e-6):
        s = FiniteSubset([0.0, 2 * math.pi / 3 + d, 4 * math.pi / 3])
        dists.append(abs(c3_coord(s).z - EXCEPTIONAL_POINT))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-5
    for d, dist in zip((1e-2, 1e-4, 1e-6), dists):
        assert dist < d  # displacement is controlled by the perturbation


def test_c3_coord_ordering_invariance():
    rng = random.Random(9)
    for _ in range(200):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(3))
        if min(b - a for a, b in zip(angles, angles[1:])) < 1e-3:
            continue
        perm = list(angles)
        rng.shuffle(perm)
        c1 = c3_coord(FiniteSubset(angles))
        c2 = c3_coord(FiniteSubset(perm))
        assert abs(c1.z - c2.z) <= 1e-9 and angle_dist(c1.theta, c2.theta) <= 1e-9


def test_c3_coord_cyclic_start_invariance():
    # the chart cannot depend on which cyclic rotation seeds the normal form
    rng = random.Random(10)
    for _ in range(100):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(3))
        if min(b - a for a, b in zip(angles, angles[1:])) < 1e-3:
            continue
        pts = [to_boundary(a) for a in angles]
        coords = []
        for k in range(3):
            p, q, r = pts[k % 3], pts[(k + 1) % 3], pts[(k + 2) % 3]
            f = frame(normalize_triple(p, q, r))
            orbit = [f]
            for _ in range(2):
                from expcircle.moebius import gamma_frame_action
                orbit.append(gamma_frame_action(orbit[-1]))
            best = min(orbit, key=lambda g: (g.z.real, g.z.imag, g.theta))
            coords.append(best)
        for f in coords[1:]:
            assert abs(f.z - coords[0].z) < 1e-9
            assert angle_dist(f.theta, coords[0].theta) < 1e-9


def test_c2_coord_antipodal():
    c = c2_coord(FiniteSubset([0.0, math.pi]))
    assert c == pytest.approx(C2Coord(math.pi / 2, 0.0), rel=0, abs=ANGLE_TOL)


def test_c2_coord_quarter_pair():
    # the pair mapping to the boundary points 1 and -1
    c = c2_coord(FiniteSubset([math.pi / 2, 3 * math.pi / 2]))
    assert c == pytest.approx(C2Coord(math.pi / 2, math.pi / 2), rel=0, abs=ANGLE_TOL)


def test_c2_nearby_core_pairs_chart_to_both_ends_of_theta():
    # on the core theta is reduced modulo pi, so two nearly equal antipodal
    # pairs can land at the two ends of [0, pi)
    a = c2_coord(FiniteSubset([0.0, math.pi]))
    b = c2_coord(FiniteSubset([1e-12, 1e-12 + math.pi]))
    assert a.theta < 1e-15 and math.pi - b.theta < 1e-11


def test_c2_swap_invariance_and_tau_identification():
    rng = random.Random(11)
    for _ in range(200):
        a1, a2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        if angle_dist(a1, a2) < 1e-3:
            continue
        assert c2_coord(FiniteSubset([a1, a2])) == c2_coord(FiniteSubset([a2, a1]))
        p, r = to_boundary(a1), to_boundary(a2)
        phi, theta = c2_chart_raw(p, r)
        phi2, theta2 = c2_chart_raw(r, p)
        assert abs(phi2 - (math.pi - phi)) < 1e-9
        assert angle_dist(theta2, theta - 2 * phi) < 1e-9


def _c2_by_objects(s):
    """The pair chart as it was built from objects: to_boundary,
    normalize_pair, frame, then the phase and the fold."""
    phi, theta = c2_chart_raw(*map(to_boundary, s.angles))
    if phi > 0.5 * math.pi + ANGLE_TOL:
        phi, theta = math.pi - phi, norm_angle(theta - 2.0 * phi)
    if abs(phi - 0.5 * math.pi) <= ANGLE_TOL:
        theta = math.fmod(norm_angle(theta), math.pi)
    return phi, theta


def _outcome(chart, s):
    try:
        return tuple(map(float.hex, chart(s)))
    except ValueError as exc:
        return str(exc)


# random gaps; antipodal and within 1e-9 of it, where the chart folds onto
# the core; gaps just above the merge threshold
PAIR_GAPS = (st.floats(1e-3, 2 * math.pi - 1e-3)
             | st.just(math.pi)
             | st.floats(-1e-9, 1e-9).map(lambda f: math.pi + f)
             | st.floats(1.001, 1.1).map(lambda f: f * DISTINCT_TOL))
# 0 and pi are the boundary points 0 and infinity
PAIR_BASES = st.sampled_from([0.0, math.pi]) | st.floats(0.0, 2 * math.pi, exclude_max=True)


# a few percent of random pairs tell a skipped normalization by its last bit
@settings(max_examples=300)
@given(PAIR_BASES, PAIR_GAPS, st.booleans())
def test_c2_coord_matches_the_object_path_bit_for_bit(base, gap, swap):
    s = FiniteSubset([base, base + gap][::-1 if swap else 1])
    assert s.size == 2
    assert _outcome(c2_coord, s) == _outcome(_c2_by_objects, s)
    # one point at 0 or at pi, in either input order
    for t in (FiniteSubset([base, 0.0]), FiniteSubset([math.pi, base])):
        if t.size == 2:
            assert _outcome(c2_coord, t) == _outcome(_c2_by_objects, t)


def _normalize_triple_by_crosses(p, q, r):
    """normalize_triple as it was written on the points: the reference for
    config._triple_matrix."""
    a, b, c = cross(q, r), cross(q, p), cross(p, r)
    if abs(a) <= ANGLE_TOL or abs(b) <= ANGLE_TOL or abs(c) <= ANGLE_TOL:
        raise ValueError("normalize_triple needs three distinct points")
    if a * b * c <= 0.0:
        raise ValueError("triple is not in counterclockwise cyclic order")
    return MoebiusMap(p.b * a, -p.a * a, r.b * b, -r.a * b)


def _c3_by_objects(s):
    """The triple chart as it was built from objects."""
    return gamma_orbit(frame(normalize_triple(*map(to_boundary, s.angles))))


def _orbit_outcome(chart, s):
    try:
        return [(f.z.real.hex(), f.z.imag.hex(), f.theta.hex()) for f in chart(s)]
    except ValueError as exc:
        return str(exc)


ANGLE = st.floats(0.0, 2 * math.pi, exclude_max=True)


@st.composite
def triple_angles(draw):
    """Three angles: random, equally spaced, with a gap just above the merge
    threshold, or with a pair within 1e-9 of antipodal; the first is often 0
    or pi, the boundary points 0 and infinity."""
    base = draw(PAIR_BASES)
    kind = draw(st.sampled_from(["random", "equal", "near", "antipodal"]))
    if kind == "equal":
        return [base, base + TWO_PI / 3, base + 2 * TWO_PI / 3]
    if kind == "near":
        second = base + draw(st.floats(1.001, 1.1)) * DISTINCT_TOL
    elif kind == "antipodal":
        second = base + math.pi + draw(st.floats(-1e-9, 1e-9))
    else:
        second = draw(ANGLE)
    return draw(st.permutations([base, second, draw(ANGLE)]))


@settings(max_examples=300)
@given(triple_angles())
def test_c3_orbit_matches_the_object_path_bit_for_bit(angles):
    s = FiniteSubset(angles)
    assume(s.size == 3)
    assert _orbit_outcome(c3_orbit, s) == _orbit_outcome(_c3_by_objects, s)


@settings(max_examples=300)
@given(triple_angles())
def test_c3_coord_is_a_frame_of_the_orbit(angles):
    # the chart value is the orbit's least frame itself, not a copy of it
    s = FiniteSubset(angles)
    assume(s.size == 3)
    coord = c3_coord(s)
    assert any(coord is f for f in c3_orbit(s))
    assert exp3_coord(s).c3 == coord
    assert exp3_coord(FiniteSubset(angles)).c3 == coord


@given(triple_angles())
def test_triple_matrix_matches_the_crosses(angles):
    pts = [to_boundary(a) for a in angles]
    fields = [x for p in pts for x in (p.a, p.b)]
    try:
        t = _normalize_triple_by_crosses(*pts)
        want = (t.a, t.b, t.c, t.d)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            config._triple_matrix(*fields)
        return
    entries = canonical_entries(*config._triple_matrix(*fields))
    assert list(map(float.hex, entries)) == list(map(float.hex, want))
    t = normalize_triple(*pts)
    assert list(map(float.hex, (t.a, t.b, t.c, t.d))) == list(map(float.hex, want))


def test_triple_matrix_rejects_coincident_and_clockwise_points():
    for bad, message in (((B(0.0), B(0.0), B(1.0)), "three distinct points"),
                         ((B(0.0), INF, B(1.0)), "counterclockwise cyclic order")):
        for chart in (_normalize_triple_by_crosses, normalize_triple):
            with pytest.raises(ValueError, match=message):
                chart(*bad)
        with pytest.raises(ValueError, match=message):
            config._triple_matrix(*(x for p in bad for x in (p.a, p.b)))


def test_exp3_coord_dispatch():
    assert exp3_coord(FiniteSubset([0.4])).tag == "C1"
    assert exp3_coord(FiniteSubset([0.4, 2.0])).tag == "C2"
    assert exp3_coord(FiniteSubset([0.4, 2.0, 4.0])).tag == "C3"
    assert exp3_coord(FiniteSubset([0.4])).c1 == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# coalescence
# ---------------------------------------------------------------------------

def test_pair_coalescence_direction_at_zero():
    lim = pair_coalescence_limit(B(0.0))
    assert lim.limit_point == 1.0 + 0.0j
    assert angle_dist(lim.direction, math.pi) < 1e-12


def test_pair_coalescence_linear_rate():
    # oracle: direct evaluation of (i - p)/(i - r) at r = 0
    errs = []
    for p in (1e-3, 1e-4, 1e-5):
        z = pair_frame(B(p), B(0.0)).z
        errs.append(abs(z - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=1e-2)
    assert errs[1] / errs[2] == pytest.approx(10.0, rel=1e-2)


def test_pair_coalescence_side_independence():
    rng = random.Random(13)
    for _ in range(100):
        ar = rng.uniform(0, 2 * math.pi)
        r = to_boundary(ar)
        lim = pair_coalescence_limit(r)
        above = frame(normalize_pair(to_boundary(ar + 1e-6), r))
        below = frame(normalize_pair(to_boundary(ar - 1e-6), r))
        assert angle_dist(above.theta, below.theta) < 1e-9
        assert angle_dist(above.theta, lim.direction) < 1e-9


def test_triple_coalescence_slopes():
    path = triple_coalescence_path(B(0.0), B(1.0))
    assert path.slope == pytest.approx(-1.0)
    assert path.endpoint == 1.0 + 0.0j
    path = triple_coalescence_path(B(0.0), B(-1.0))
    assert path.slope == pytest.approx(1.0)
    assert path.endpoint == 0.0 + 0.0j


def test_triple_coalescence_rejects_antipodal():
    with pytest.raises(ValueError):
        triple_coalescence_path(B(0.0), INF)


def test_triple_coalescence_samples_approach_corner():
    # oracle: xi(i) = s (1 - i)/2 with s = (q - r)/(q - p) for p = 0, r = 1
    path = triple_coalescence_path(B(0.0), B(1.0))
    for j in (2, 4, 6):
        q = 1.0 - 10.0**-j
        z = path.sample_z(B(q))
        s = (q - 1.0) / q
        assert abs(z - s * (1 - 1j) / 2) < 1e-12
        assert z.imag / z.real == pytest.approx(-1.0)
    zs = [path.sample_z(B(1.0 - 10.0**-j)) for j in (2, 3, 4)]
    assert abs(zs[0]) > abs(zs[1]) > abs(zs[2])


def test_triple_coalescence_fitted_slope():
    rng = random.Random(17)
    done = 0
    while done < 100:
        ap = rng.uniform(0, 2 * math.pi)
        ar = rng.uniform(0, 2 * math.pi)
        if angle_dist(ap, ar) < 1e-2 or abs(angle_dist(ap, ar) - math.pi) < 0.1:
            continue
        p, r = to_boundary(ap), to_boundary(ar)
        path = triple_coalescence_path(p, r)
        span = norm_angle(ar - ap)
        zs = [path.sample_z(to_boundary(ar - d)) for d in (1e-4, 2e-4, 3e-4) if d < span]
        num = sum(z.real * z.imag for z in zs)
        den = sum(z.real * z.real for z in zs)
        fitted = num / den
        assert abs(fitted - path.slope) / abs(path.slope) < 1e-6
        done += 1


def test_triple_coalescence_folded_endpoint():
    # the in-domain representative runs into the predicted corner
    for (pv, rv) in ((0.0, 1.0), (0.0, -1.0), (2.0, 5.0), (-3.0, 0.5)):
        p, r = B(pv), B(rv)
        path = triple_coalescence_path(p, r)
        ar, ap = from_boundary(r), from_boundary(p)
        span = norm_angle(ar - ap)
        folded = [fold_to_domain(frame(normalize_triple(p, to_boundary(ar - d), r))).z
                  for d in (1e-2, 1e-4, 1e-6)]
        dists = [abs(z - path.endpoint) for z in folded]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-2


def test_edge_collapse():
    alpha = 1.0
    seq = [FiniteSubset([alpha - e, alpha, alpha + e]) for e in (0.1, 0.01, 1e-4, 1e-8)]
    out = edge_collapse_limit(seq)
    assert out.tag == "C1" and angle_dist(out.c1, alpha) < 1e-7
    for e in (0.1, 0.01):
        s = FiniteSubset([alpha - e, alpha, alpha + e])
        assert hausdorff_distance(s, FiniteSubset([alpha])) == pytest.approx(e)
    seq = [FiniteSubset([alpha - e, alpha + e * e, alpha + e]) for e in (0.1, 0.01, 1e-4, 1e-8)]
    out = edge_collapse_limit(seq)
    assert out.tag == "C1" and angle_dist(out.c1, alpha) < 1e-7
    with pytest.raises(ValueError):
        edge_collapse_limit([FiniteSubset([0.0, 1.0, 2.0])] * 4)


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def test_loop_a_closure():
    s = FiniteSubset([0.2, 1.0, 3.0])
    loop = loop_a(s, samples=120)
    assert _same_subset(loop.subsets[0], loop.subsets[-1])
    eq = FiniteSubset([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    loop = loop_a(eq, samples=120)
    assert _same_subset(loop.subsets[40], eq)  # closes already at t = 1/3
    single = loop_a(FiniteSubset([0.5]), samples=64)
    assert all(s.size == 1 for s in single.subsets)


def test_loop_b_closure_and_equilateral():
    rng = random.Random(19)
    for _ in range(50):
        s = FiniteSubset(sorted(rng.uniform(0, 2 * math.pi) for _ in range(3)))
        if s.size != 3:
            continue
        loop = loop_b(s, samples=64)
        assert _same_subset(loop.subsets[0], loop.subsets[-1])
    eq = FiniteSubset([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    loop = loop_b(eq, samples=90)
    for k, s in enumerate(loop.subsets):
        t = k / 90
        assert hausdorff_distance(s, rotate(t * 2 * math.pi / 3, eq)) < 1e-9


def test_loop_b_chart_continuity():
    s = FiniteSubset([0.3, 1.7, 4.1])
    loop = loop_b(s, samples=512)
    coords = [c3_coord(x) for x in loop.subsets]
    gaps = [c3_distance(a, b) for a, b in zip(coords, coords[1:])]
    assert max(gaps) < 0.1


def test_core_circle():
    loop = core_circle(samples=64)
    assert _same_subset(loop.subsets[0], loop.subsets[-1])
    assert not _same_subset(loop.subsets[0], loop.subsets[32])
    for s in loop.subsets:
        assert s.size == 2
        assert angle_dist(s.angles[1] - s.angles[0], math.pi) < 1e-9


def test_boundary_torus_curve():
    eps = 0.1
    loop = boundary_torus_curve(eps, samples=360)
    assert _same_subset(loop.subsets[0], loop.subsets[-1])
    for s in loop.subsets[:: 30]:
        c = c2_coord(s)
        assert abs(c.phi - (math.pi / 2 - eps)) < 1e-9
    # a single traversal of the core direction does not close the curve
    half = loop.subsets[180]
    assert hausdorff_distance(half, loop.subsets[0]) > eps
    with pytest.raises(ValueError):
        boundary_torus_curve(1.0, 360)
    with pytest.raises(ValueError):
        boundary_torus_curve(0.0, 360)


def _reference_loop(starts, sep):
    """The pairs {x, x + sep} through FiniteSubset's sort and merge scan."""
    return [FiniteSubset([x, x + sep]).angles for x in starts]


def _angles(loop):
    # norm_angle clears the sign of -0.0, so == on these tuples is bit equality
    assert all(type(s) is FiniteSubset and s._orbit is None for s in loop.subsets)
    return [s.angles for s in loop.subsets]


@pytest.mark.parametrize("samples", (2, 3, 7, 720, 1000, cli.MAX_SAMPLES))
def test_pair_loops_have_the_bits_of_finite_subsets(samples):
    starts = [TWO_PI * k / samples for k in range(samples + 1)]
    for eps in (2.0000001 * ANGLE_TOL, 1e-3, 0.1, 0.3, math.pi / 4 - 1e-12):
        sep = math.pi - 2.0 * eps  # one value, as the curve adds it
        assert _angles(boundary_torus_curve(eps, samples)) == _reference_loop(starts, sep)
    starts = [math.pi * k / samples for k in range(samples + 1)]
    assert _angles(core_circle(samples)) == _reference_loop(starts, math.pi)


def test_singleton_track_has_the_bits_of_finite_subsets(monkeypatch):
    built = []

    def recording(starts, sep, pair_loop=config._pair_loop):
        built.append(pair_loop(starts, sep))
        return built[-1]

    monkeypatch.setattr(config, "_pair_loop", recording)
    for alpha in (0.3, 6.2):  # the second pair wraps past 2*pi
        single = loop_a(FiniteSubset([alpha]), samples=720)
        assert winding_diagnostic(single) == (2, 3)
        starts = [s.angles[0] for s in single.subsets]
        assert _angles(built[-1]) == _reference_loop(starts, config._SINGLETON_SPREAD)
    assert len(built) == 2
    with pytest.raises(ValueError, match="exactly 3 points"):  # the orbit slot is set
        c3_orbit(built[-1].subsets[0])


# ---------------------------------------------------------------------------
# winding diagnostics
# ---------------------------------------------------------------------------

def test_winding_core():
    assert winding_diagnostic(core_circle(samples=256)) == (1, 0)


def test_winding_boundary_torus_curve():
    # golden orientation convention: counterclockwise traversal gives (2, 3)
    assert winding_diagnostic(boundary_torus_curve(0.1, 720)) == (2, 3)
    for eps in (0.05, 0.2):
        for samples in (360, 1440):
            w = winding_diagnostic(boundary_torus_curve(eps, samples))
            assert (abs(w[0]), abs(w[1])) == (2, 3)
    # clockwise traversal flips both counts
    reversed_curve = SampledLoop(list(reversed(boundary_torus_curve(0.1, 720).subsets)))
    assert winding_diagnostic(reversed_curve) == (-2, -3)


def test_winding_singleton_matches_torus_curve():
    single = loop_a(FiniteSubset([0.3]), samples=720)
    assert winding_diagnostic(single) == winding_diagnostic(boundary_torus_curve(0.1, 720))


def test_winding_rejections():
    with pytest.raises(ValueError):
        winding_diagnostic(boundary_torus_curve(0.1, 4))  # under-sampled
    triple = loop_a(FiniteSubset([0.1, 2.0, 4.0]), samples=64)
    with pytest.raises(ValueError):
        winding_diagnostic(triple)
    # an open path is refused when the loop is built, before any winding
    with pytest.raises(ValueError, match="closed loop must end where it starts"):
        SampledLoop([FiniteSubset([0.0, 1.0]), FiniteSubset([0.1, 1.1])])
    with pytest.raises(ValueError):
        winding_diagnostic(core_circle(samples=2))
    # the two points trade places (m = 1): the separation passes antipodal
    swap = SampledLoop([
        FiniteSubset([t, 1.0 + t * (2.0 * math.pi - 1.0)])
        for t in (k / 64 for k in range(65))
    ])
    with pytest.raises(ValueError, match="crosses the core"):
        winding_diagnostic(swap)
    # the separation opens to exactly pi at the middle sample and closes
    # again, so the loop touches the core there without crossing it
    touch = SampledLoop([FiniteSubset([0.0, math.pi - 0.5 * abs(k - 32) / 32]) for k in range(65)])
    assert touch.subsets[32].angles == (0.0, math.pi)
    with pytest.raises(ValueError, match="^loop touches or crosses the core circle$"):
        winding_diagnostic(touch)


def test_exp3_coord_records_equal_keyword_built_ones():
    for angles in ([0.4], [0.3, 2.0], [0.0, math.pi], [0.3, 2.0, 4.0],
                   [0.0, TWO_PI / 3, 2 * TWO_PI / 3]):
        s = FiniteSubset(angles)
        rec = exp3_coord(s)
        if len(angles) == 1:
            want = Exp3Coord("C1", c1=s.angles[0])
        elif len(angles) == 2:
            want = Exp3Coord("C2", c2=c2_coord(s))
        else:
            want = Exp3Coord("C3", c3=c3_coord(s))
        assert type(rec) is Exp3Coord and rec == want
        assert [name for name in rec._fields if getattr(rec, name) is None] == \
            [name for name in ("c1", "c2", "c3") if name != f"c{len(angles)}"]


def test_chart_value_contract():
    e = Exp3Coord("C1", c1=0.4)
    assert e.tag == "C1" and e.c1 == 0.4 and e.c2 is None and e.c3 is None
    assert Exp3Coord("C2", c2=C2Coord(1.0, 0.5)).c1 is None
    c2 = C2Coord(1.0, 0.5)
    assert c2.phi == pytest.approx(1.0 + 1e-12, rel=0, abs=ANGLE_TOL)
    assert angle_dist(c2.theta, 0.5 + 2.0 * math.pi) <= ANGLE_TOL
    assert c2.phi != pytest.approx(1.1, rel=0, abs=ANGLE_TOL)
    c3 = c3_coord(FiniteSubset([0.3, 2.0, 4.0]))
    turned = Frame(c3.z, c3.theta + 2.0 * math.pi)
    assert type(c3) is Frame and turned.z == c3.z and angle_dist(turned.theta, c3.theta) <= ANGLE_TOL
    orbit = c3_coord_orbit(c3)
    assert len(orbit) == 3 and orbit[0] == (c3.z, c3.theta)
    assert c3_distance(c3, orbit[1]) < 1e-12
    for value in (e, c2, c3):
        twin = type(value)(*value)
        assert value == twin and hash(value) == hash(twin)
        with pytest.raises(AttributeError):
            value.extra = 0.0
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
    assert repr(c2) == "C2Coord(phi=1.0, theta=0.5)"
    assert repr(e) == "Exp3Coord(tag='C1', c1=0.4, c2=None, c3=None)"


@pytest.mark.parametrize("k, n, antipodal, equilateral", [(3, 3, 3, 4), (3, 4, 8, 4), (2, 4, 8, 0)])
def test_model_keys_chart_to_their_stratum(k, n, antipodal, equilateral):
    # a vertex key of the simplicial model is a point set, each integer x
    # standing for the angle 2 pi x / period: the charts put it in the
    # stratum of its size, an antipodal pair on the band's core and an
    # equilateral triple at the exceptional point
    model = build_exp_model(k, n)
    period = model.period
    seen = [0, 0]
    for key in model.keys:
        s = FiniteSubset([2.0 * math.pi * x / period for x in key])
        coord = exp3_coord(s)
        assert coord.tag == f"C{len(key)}", key
        gaps = {(b - a) % period for a, b in zip(key, key[1:] + key[:1])}
        if len(key) == 2 and gaps == {period // 2}:
            assert abs(coord.c2.phi - 0.5 * math.pi) <= ANGLE_TOL, key
            seen[0] += 1
        elif len(key) == 3 and gaps == {period // 3}:
            assert any(abs(f.z - EXCEPTIONAL_POINT) <= ANGLE_TOL for f in c3_orbit(s)), key
            seen[1] += 1
    assert seen == [antipodal, equilateral]
