"""Finite subsets of the circle and their chart coordinates.

A subset of one, two or three circle points is put in normal form by the
Moebius map carrying it to {0}, {0, oo} or (0, 1, oo) on the boundary of the
upper half-plane.  The frame of that map gives chart coordinates: an angle for
singletons, a Moebius-band point for pairs (the scaling subgroup is divided
out by keeping only arg z, the order-2 element by folding phi into (0, pi/2]),
and a canonical representative of a 3-element orbit for triples (the order-3
element acts by (z, theta) -> (gamma z, theta - 2 arg z); the stored
representative is the lexicographic minimum of the orbit).  The chart
values (C2Coord, Exp3Coord, and for triples the least moebius.Frame of the
orbit itself), the coalescence limits and the sampled loops, every one of
them closed, are immutable tuples, and the order-3 element is the module
constant moebius.GAMMA, so a chart call builds no group element it does not
need.  The pair and triple charts build no object but their results:
c2_coord and c3_orbit run moebius.unit_pair, canonical_entries, frame_parts
and (for triples) gamma_frame_parts, from which BoundaryPoint, MoebiusMap,
frame and gamma_frame_action are built, on the angles, with the matrices of
_pair_matrix and _triple_matrix.  A subset is read-only, and the orbit of a
triple is computed once, on the first chart call, then kept on the subset and
shared by every later one.  The sampled pair loops (the band curve, the core
and the singleton track of the winding diagnostic) are built by _pair_loop,
which sets each pair's slots directly from its two reduced, ordered angles
instead of running FiniteSubset's sort and merge scan.

The module also provides the coalescence limits that describe how the strata
glue (pairs degenerating to points, triples to pairs or points), sampled
loops inside the space, and a winding diagnostic for curves living in the
pair stratum: it measures the longitudinal winding around the band core and
derives the meridional one from it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .moebius import (
    ANGLE_TOL,
    TWO_PI,
    BoundaryPoint,
    Frame,
    MoebiusMap,
    angle_dist,
    canonical_entries,
    checked_namedtuple,
    cross,
    frame,
    frame_parts,
    gamma_frame_parts,
    gamma_orbit,
    norm_angle,
    unit_pair,
)

# Two circle points closer than this collapse to one at construction.  The
# charts reject a pair whose projective cross |sin(gap / 2)| is at most
# ANGLE_TOL, that is a gap up to about 2 * ANGLE_TOL; merging below twice
# that leaves every subset that stays distinct chartable despite rounding.
DISTINCT_TOL = 4.0 * ANGLE_TOL

EXCEPTIONAL_POINT = cmath.exp(1j * math.pi / 3.0)
_HALF_PI = 0.5 * math.pi  # phi on the band core


# ---------------------------------------------------------------------------
# circle <-> boundary model transfer
# ---------------------------------------------------------------------------

def to_boundary(alpha: float) -> BoundaryPoint:
    """Angle alpha to the boundary point (sin(alpha/2) : cos(alpha/2)).

    The map is the usual tan-half-angle chart: 0 -> 0, pi/2 -> 1, pi -> oo,
    3pi/2 -> -1, and it is orientation preserving (counterclockwise angles
    run through the reals in increasing order, passing through infinity).
    """
    h = 0.5 * norm_angle(alpha)
    return BoundaryPoint(math.sin(h), math.cos(h))


# ---------------------------------------------------------------------------
# subsets and the quotient metric
# ---------------------------------------------------------------------------

class FiniteSubset:
    """A subset of the circle with 1 to 3 points, stored as sorted angles.

    Construction from a tuple with repeats (closer than DISTINCT_TOL along
    the circle) collapses them, which is exactly how ordered tuples project
    to subsets.  Every angle must be finite.  A subset is read-only: its
    angles and the orbit that c3_orbit keeps on it cannot be reassigned, so
    the kept orbit always belongs to the angles.
    """

    __slots__ = ("angles", "_orbit")

    def __init__(self, angles):
        raw = sorted(map(norm_angle, angles))
        merged = []
        last = -math.inf
        for a in raw:
            if a - last > DISTINCT_TOL:
                merged.append(a)
                last = a
        if not merged:
            raise ValueError("a subset needs at least one point")
        # wraparound: the largest angle may coincide with the smallest
        if len(merged) > 1 and TWO_PI - last + merged[0] <= DISTINCT_TOL:
            merged.pop()
        if len(merged) > 3:
            raise ValueError(f"at most 3 distinct points supported, got {len(merged)}")
        _set_angles(self, tuple(merged))
        _set_orbit(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteSubset is read-only, cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FiniteSubset is read-only, cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild the subset from its angles instead of
        # setting the slots
        return FiniteSubset, (self.angles,)

    @property
    def size(self) -> int:
        return len(self.angles)

    def __iter__(self):
        return iter(self.angles)

    def __repr__(self):
        pts = ", ".join(f"{a:.12g}" for a in self.angles)
        return f"FiniteSubset({{{pts}}})"


# The slots' own setters, for __init__, _pair_loop and c3_orbit;
# FiniteSubset.__setattr__ refuses every assignment.
_set_angles = FiniteSubset.angles.__set__
_set_orbit = FiniteSubset._orbit.__set__


def hausdorff_distance(s: FiniteSubset, t: FiniteSubset) -> float:
    """Hausdorff distance for the arc metric; it metrizes the quotient
    topology on finite subsets of the circle."""
    def directed(u, v):
        return max(min(angle_dist(a, b) for b in v) for a in u)

    return max(directed(s.angles, t.angles), directed(t.angles, s.angles))


def rotate(zeta: float, s: FiniteSubset) -> FiniteSubset:
    """The circle action: shift every point of the subset by zeta."""
    return FiniteSubset(a + zeta for a in s.angles)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def _pair_matrix(pa: float, pb: float, ra: float, rb: float) -> tuple[float, float, float, float]:
    """normalize_pair's matrix for (pa : pb) and (ra : rb), not yet canonical."""
    det = pa * rb - pb * ra  # cross(p, r)
    if abs(det) <= ANGLE_TOL:
        raise ValueError("normalize_pair needs two distinct points")
    if det > 0.0:
        return pb, -pa, rb, -ra
    return -pb, pa, rb, -ra


def normalize_pair(p: BoundaryPoint, r: BoundaryPoint) -> MoebiusMap:
    """The orientation-preserving map with p -> 0 and r -> oo.

    Built projectively from the pair, so either point may be infinity.  When
    the naive matrix is orientation reversing, its first row is negated; this
    keeps p at 0 and r at infinity while staying inside PSL(2, R).
    """
    return MoebiusMap(*_pair_matrix(p.a, p.b, r.a, r.b))


def _triple_matrix(pa: float, pb: float, qa: float, qb: float,
                   ra: float, rb: float) -> tuple[float, float, float, float]:
    """normalize_triple's matrix for (pa : pb), (qa : qb) and (ra : rb), not
    yet canonical."""
    a = qa * rb - qb * ra  # cross(q, r)
    b = qa * pb - qb * pa  # cross(q, p)
    c = pa * rb - pb * ra  # cross(p, r)
    if abs(a) <= ANGLE_TOL or abs(b) <= ANGLE_TOL or abs(c) <= ANGLE_TOL:
        raise ValueError("normalize_triple needs three distinct points")
    if a * b * c <= 0.0:
        raise ValueError("triple is not in counterclockwise cyclic order")
    return pb * a, -pa * a, rb * b, -ra * b


def normalize_triple(p: BoundaryPoint, q: BoundaryPoint, r: BoundaryPoint) -> MoebiusMap:
    """The map with p -> 0, q -> 1, r -> oo for a counterclockwise triple.

    Projective form of z -> ((q - r)/(q - p)) (z - p)/(z - r); any of the
    three points may be infinity.  A clockwise-ordered triple would need an
    orientation-reversing map and is rejected.
    """
    return MoebiusMap(*_triple_matrix(p.a, p.b, q.a, q.b, r.a, r.b))


def pair_frame(x: BoundaryPoint, y: BoundaryPoint) -> Frame:
    """Frame of the pair normalization in its positively oriented order.

    Frees callers from choosing which point goes to 0: the order with
    positive projective orientation is used, which matches the convention
    "larger point first" for finite reals.
    """
    if cross(x, y) > 0.0:
        return frame(normalize_pair(x, y))
    return frame(normalize_pair(y, x))


# ---------------------------------------------------------------------------
# chart coordinates
# ---------------------------------------------------------------------------

class C2Coord(namedtuple("C2Coord", ("phi", "theta"))):
    """Moebius-band chart point for a pair: phi in (0, pi/2], theta an angle.

    Canonical under (phi, theta) ~ (pi - phi, theta - 2 phi); on the core
    phi = pi/2 the residual identification theta ~ theta - pi is reduced to
    theta in [0, pi).
    """

    __slots__ = ()


class Exp3Coord(namedtuple("Exp3Coord", ("tag", "c1", "c2", "c3"), defaults=(None, None, None))):
    """Tagged chart coordinate: C1 angle, C2 band point, or C3 orbit point;
    the two fields that do not apply are None."""

    __slots__ = ()


def _lex_min_frame(frames) -> Frame:
    """The least frame under (Re z, Im z, theta): two keys within ANGLE_TOL
    of each other tie, and the next key decides."""
    best = frames[0]
    for f in frames[1:]:
        z, bz = f.z, best.z
        if z.real < bz.real - ANGLE_TOL:
            best = f
        elif z.real > bz.real + ANGLE_TOL:
            continue
        elif z.imag < bz.imag - ANGLE_TOL:
            best = f
        elif z.imag > bz.imag + ANGLE_TOL:
            continue
        elif f.theta < best.theta - ANGLE_TOL:
            best = f
    return best


def c3_orbit(s: FiniteSubset) -> tuple[Frame, Frame, Frame]:
    """All three frames of the normal-form orbit of a 3-point subset.

    The orbit is computed on the first call and kept on the subset; later
    calls, and so c3_coord, exp3_coord and coord's printed orbit, share
    that tuple.  A subset of another size raises on every call.  It is
    gamma_orbit(frame(normalize_triple(p, q, r))) for the to_boundary points,
    computed on floats.
    """
    orbit = s._orbit
    if orbit is None:
        angles = s.angles
        if len(angles) != 3:
            raise ValueError("c3 chart needs a subset of exactly 3 points")
        h0, h1, h2 = 0.5 * angles[0], 0.5 * angles[1], 0.5 * angles[2]  # as in c2_coord
        m = _triple_matrix(*unit_pair(math.sin(h0), math.cos(h0)),
                           *unit_pair(math.sin(h1), math.cos(h1)),
                           *unit_pair(math.sin(h2), math.cos(h2)))
        f0 = frame_parts(*canonical_entries(*m))
        f1 = gamma_frame_parts(*f0)
        f2 = gamma_frame_parts(*f1)
        # the fields are checked, so the frames are built as bare tuples
        orbit = (tuple.__new__(Frame, f0), tuple.__new__(Frame, f1), tuple.__new__(Frame, f2))
        _set_orbit(s, orbit)
    return orbit


def c3_coord(s: FiniteSubset) -> Frame:
    """Chart coordinate of a 3-point subset, independent of input ordering:
    the least frame of its orbit, itself one of the frames of c3_orbit."""
    return _lex_min_frame(c3_orbit(s))


def c2_coord(s: FiniteSubset) -> C2Coord:
    """Band chart coordinate of a 2-point subset.

    The scaling ambiguity is removed by keeping only phi = arg z; the
    order-2 ambiguity by folding (phi, theta) -> (pi - phi, theta - 2 phi)
    into phi <= pi/2, with theta reduced modulo pi on the core phi = pi/2.
    It computes frame(normalize_pair(p, r)) for the to_boundary points, on floats.
    """
    angles = s.angles
    if len(angles) != 2:
        raise ValueError("c2 chart needs a subset of exactly 2 points")
    h, k = 0.5 * angles[0], 0.5 * angles[1]  # to_boundary's norm_angle: a no-op here
    m = _pair_matrix(*unit_pair(math.sin(h), math.cos(h)), *unit_pair(math.sin(k), math.cos(k)))
    z, theta = frame_parts(*canonical_entries(*m))
    phi = cmath.phase(z)
    if phi > _HALF_PI + ANGLE_TOL:
        phi, theta = math.pi - phi, norm_angle(theta - 2.0 * phi)
    if abs(phi - _HALF_PI) <= ANGLE_TOL:
        theta = math.fmod(norm_angle(theta), math.pi)
    return tuple.__new__(C2Coord, (phi, theta))


def exp3_coord(s: FiniteSubset) -> Exp3Coord:
    """Chart coordinate of any subset, dispatching on its size."""
    angles = s.angles
    if len(angles) == 1:
        return tuple.__new__(Exp3Coord, ("C1", angles[0], None, None))
    if len(angles) == 2:
        return tuple.__new__(Exp3Coord, ("C2", None, c2_coord(s), None))
    return tuple.__new__(Exp3Coord, ("C3", None, None, c3_coord(s)))


# ---------------------------------------------------------------------------
# coalescence limits: how the strata glue
# ---------------------------------------------------------------------------

class PairCoalescence(namedtuple("PairCoalescence", ("limit_point", "direction"))):
    """Limit data of the pair normal form as the two points merge at r.

    The half-plane coordinate of the normal form tends to the boundary point
    1 + 0i while the derivative direction freezes at the direction of
    1/(i - r)^2, independent of which side the moving point approaches from
    (the positively oriented ordering swaps together with the side).
    """

    __slots__ = ()


def pair_coalescence_limit(r: BoundaryPoint) -> PairCoalescence:
    # direction of 1/(r.b * i - r.a)^2, the projective form of 1/(i - r)^2
    w = complex(-r.a, r.b)
    return PairCoalescence(limit_point=1.0 + 0.0j, direction=norm_angle(-2.0 * cmath.phase(w)))


class TripleCoalescencePath(namedtuple("TripleCoalescencePath", ("p", "r", "slope", "endpoint"))):
    """Path traced in one half-plane slice by a triple with p, r fixed.

    As the middle point q varies, the normal-form point xi(i) moves along a
    straight line through 0 of the predicted slope; as q merges into r the
    path runs into the corner of the triple chart.  Folded into the wedge
    fundamental domain bounded by the unit circles around 0 and 1, the limit
    corner is 0 + 0i for positive slope and 1 + 0i for negative slope.
    """

    __slots__ = ()

    def sample_z(self, q: BoundaryPoint) -> complex:
        """Normal-form point xi(i) for the triple (p, q, r); q must lie
        strictly between p and r in counterclockwise order."""
        return frame(normalize_triple(self.p, q, self.r)).z


def triple_coalescence_path(p: BoundaryPoint, r: BoundaryPoint) -> TripleCoalescencePath:
    """Predicted slope and folded endpoint for the coalescence q -> r."""
    num = cross(p, r)
    den = p.a * r.a + p.b * r.b
    if abs(num) <= ANGLE_TOL:
        raise ValueError("triple coalescence needs p distinct from r")
    if abs(den) <= 1e-12:
        raise ValueError(
            "degenerate vertical-slope case: the pair (p, r) is antipodal, "
            "the slope (p - r)/(1 + p r) is undefined"
        )
    slope = num / den
    endpoint = 0.0 + 0.0j if slope > 0.0 else 1.0 + 0.0j
    return TripleCoalescencePath(p=p, r=r, slope=slope, endpoint=endpoint)


def fold_to_domain(f: Frame) -> Frame:
    """Representative of the 3-element orbit inside the wedge domain
    {|z| <= 1, |z - 1| <= 1}, widened by 1e-7; used to read coalescence
    endpoints off the fundamental-domain picture.  Ties on the wedge boundary
    break towards smaller Re z.
    """
    edge = 1.0 + 1e-7
    inside = [g for g in gamma_orbit(f) if abs(g.z) <= edge and abs(g.z - 1.0) <= edge]
    if not inside:
        raise ValueError("no orbit representative inside the wedge domain")
    return _lex_min_frame(inside)


def edge_collapse_limit(subsets, tol: float = 1e-6) -> Exp3Coord:
    """Limit of a sequence of 3-point subsets collapsing to one point.

    The common limit angle is estimated from the last subset; the sequence
    must approach it in Hausdorff distance, otherwise it is rejected.
    """
    seq = list(subsets)
    if len(seq) < 2:
        raise ValueError("need at least two subsets to take a limit")
    for s in seq:
        if s.size != 3:
            raise ValueError("edge collapse expects subsets of size 3")
    last = seq[-1]
    x = sum(math.cos(a) for a in last.angles)
    y = sum(math.sin(a) for a in last.angles)
    alpha = norm_angle(math.atan2(y, x))
    target = FiniteSubset([alpha])
    dists = [hausdorff_distance(s, target) for s in seq]
    if not (dists[-1] < dists[0] and dists[-1] <= tol):
        raise ValueError(
            f"sequence does not collapse to a point: distances {dists[0]:.3g} -> {dists[-1]:.3g}"
        )
    return Exp3Coord("C1", c1=alpha)


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

class SampledLoop(checked_namedtuple("SampledLoop", ("subsets",))):
    """Ordered samples of a closed path of subsets, kept as a tuple: the
    last equals the first, which construction checks."""

    __slots__ = ()

    def __new__(cls, subsets=()):
        subsets = tuple(subsets)
        if subsets and hausdorff_distance(subsets[0], subsets[-1]) > ANGLE_TOL:
            raise ValueError("closed loop must end where it starts")
        return tuple.__new__(cls, (subsets,))


def loop_a(s: FiniteSubset, samples: int = 256) -> SampledLoop:
    """The rotation loop: the circle action applied through a full turn."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    pts = [rotate(TWO_PI * k / samples, s) for k in range(samples + 1)]
    return SampledLoop(pts)


def loop_b(s: FiniteSubset, samples: int = 256) -> SampledLoop:
    """The meridional loop: each point slides counterclockwise to the next.

    Every point moves monotonically through the gap ahead of it, so the
    endpoint is a cyclic relabelling of the same subset and the loop is
    closed.  On an equilateral triple all gaps equal 2*pi/3 and the loop
    coincides with rotation by t * 2*pi/3, the path along the exceptional
    fibre.
    """
    if s.size != 3:
        raise ValueError("loop_b needs a subset of exactly 3 points")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    x1, x2, x3 = s.angles
    gaps = (x2 - x1, x3 - x2, TWO_PI - x3 + x1)
    pts = []
    for k in range(samples + 1):
        t = k / samples
        pts.append(FiniteSubset([x1 + t * gaps[0], x2 + t * gaps[1], x3 + t * gaps[2]]))
    return SampledLoop(pts)


def _pair_loop(starts, sep: float) -> SampledLoop:
    """The closed loop of the pairs {x, x + sep}, x running through starts.

    Each endpoint goes through norm_angle and the two are ordered by one
    comparison; the slots are set as __init__ sets them, with no sort and no
    merge scan.  Precondition: every x is finite with 0 <= x <= 2*pi, and sep
    lies in (DISTINCT_TOL, 2*pi - DISTINCT_TOL) by more than rounding.  Then
    the two points are distinct both ways round the circle, the scan would
    keep both, and every angle has the same bits as FiniteSubset([x, x + sep]).
    """
    new, pts = FiniteSubset.__new__, []
    for x in starts:
        a, b = norm_angle(x), norm_angle(x + sep)
        s = new(FiniteSubset)
        _set_angles(s, (a, b) if a < b else (b, a))
        _set_orbit(s, None)
        pts.append(s)
    return SampledLoop(pts)


def core_circle(samples: int = 256) -> SampledLoop:
    """The circle of antipodal pairs, the band core; closes after a half turn."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    return _pair_loop([math.pi * k / samples for k in range(samples + 1)], math.pi)


def boundary_torus_curve(eps: float, samples: int = 720) -> SampledLoop:
    """The locus of pairs at band distance eps from the core, traversed once.

    Pairs of separation pi - 2*eps, slid around the circle; closure needs a
    full turn of the sliding parameter, which passes the core position twice.
    The charts fold a pair onto the core side only beyond ANGLE_TOL of it, so
    eps must clear that with a margin for rounding: at 2 * ANGLE_TOL or less
    the curve cannot be told from the core.  The pairs are built by _pair_loop,
    with the bits of FiniteSubset([x, x + sep]).
    """
    if not 2.0 * ANGLE_TOL < eps < math.pi / 4.0:
        raise ValueError(
            f"eps must lie in (2 * ANGLE_TOL, pi/4) = ({2.0 * ANGLE_TOL:g}, pi/4) "
            f"to tell the curve from the core, got {eps!r}"
        )
    if samples < 2:
        raise ValueError("need at least 2 samples")
    return _pair_loop([TWO_PI * k / samples for k in range(samples + 1)], math.pi - 2.0 * eps)


# ---------------------------------------------------------------------------
# winding diagnostics around the core circle
# ---------------------------------------------------------------------------

# Perturbation used to track singleton loops as nearby pairs.
_SINGLETON_SPREAD = 0.2


def _track_pair_angles(loop: SampledLoop):
    """Continuous lifted trajectories (A(t), B(t)) of the two points."""
    remainder, subsets = math.remainder, loop.subsets
    first = subsets[0].angles
    a, b = float(first[0]), float(first[1])
    traj_a, traj_b = [a], [b]
    for s in subsets[1:]:
        u, v = s.angles
        da, db = remainder(u - a, TWO_PI), remainder(v - b, TWO_PI)
        ea, eb = remainder(v - a, TWO_PI), remainder(u - b, TWO_PI)
        step, swapped = max(abs(da), abs(db)), max(abs(ea), abs(eb))
        # the tie rule of min over (step, da, db): the swap wins only if less
        if swapped < step or swapped == step and (ea, eb) < (da, db):
            step, da, db = swapped, ea, eb
        if step >= 0.5 * math.pi:
            raise ValueError(
                f"under-sampled loop: consecutive angle increment {step:.3g} >= pi/2"
            )
        a += da
        b += db
        traj_a.append(a)
        traj_b.append(b)
    return traj_a, traj_b


def winding_diagnostic(loop: SampledLoop) -> tuple[int, int]:
    """Longitudinal and meridional winding of a closed loop around the core.

    The loop must live in the pair stratum (singleton loops are tracked via a
    perturbed pair at fixed small separation).  The longitudinal count m is
    measured: the advance of the continuously tracked pair against the
    core's half-turn period.  The meridional count is not measured but
    derived as 3m/2: off the core the band retracts onto the (2, 3) boundary
    curve.  m is even, since a loop with odd m swaps its two points and so
    crosses the core, which is refused.  A loop on the core reports (m, 0).
    """
    if len(loop.subsets) < 2:
        raise ValueError("winding diagnostic needs a loop of at least 2 samples")
    sizes = {len(s.angles) for s in loop.subsets}
    if sizes == {1}:
        loop = _pair_loop([s.angles[0] for s in loop.subsets], _SINGLETON_SPREAD)
    elif sizes != {2}:
        raise ValueError(
            "winding diagnostic is defined for loops in the pair stratum "
            f"(sizes seen: {sorted(sizes)})"
        )

    traj_a, traj_b = _track_pair_angles(loop)
    da, db = traj_a[-1] - traj_a[0], traj_b[-1] - traj_b[0]
    m_float = (da + db) / TWO_PI
    m = round(m_float)
    if abs(m_float - m) > 1e-6:
        raise ValueError(f"loop does not close consistently (winding {m_float!r})")

    # transverse position: deviation of the pair separation from antipodal
    devs = [math.remainder(x - y - math.pi, TWO_PI) for x, y in zip(traj_a, traj_b)]
    if max(map(abs, devs)) <= ANGLE_TOL:
        return (m, 0)
    if min(map(abs, devs)) <= ANGLE_TOL or min(devs) < 0.0 < max(devs):
        raise ValueError("loop touches or crosses the core circle")
    return (m, 3 * m // 2)
