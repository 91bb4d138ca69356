"""Arithmetic of PSL(2, R) acting on the upper half-plane and its boundary circle.

A Moebius map is stored as a real 2x2 matrix of determinant 1 with a canonical
sign (first nonzero entry positive), so equality of group elements is equality
of matrices.  Boundary points of the half-plane are projective pairs, which
removes every special case around infinity.  The frame map sends a group
element T to the pair (T(i), arg dT/dz(i)) and identifies PSL(2, R) with
H x S^1; the named elements gamma, tau and sigma_lambda generate the
stabilizers used to put small subsets of the boundary circle in normal form.

A frame is an immutable tuple (z, theta), so building one costs little more
than a tuple, and the frame action of gamma reads GAMMA's entries as module
floats, GAMMA being built once by the same validated constructor as gamma().
BoundaryPoint, MoebiusMap, frame and gamma_frame_action are built from the
float functions unit_pair, canonical_entries, frame_parts and
gamma_frame_parts, which give the same bits without objects; the pair and
triple charts run them directly.
"""

from __future__ import annotations

import math
from collections import namedtuple

TWO_PI = 2.0 * math.pi

# Entries and coordinates at most this in size count as zero when a sign is
# made canonical.
MATRIX_TOL = 1e-12
# Tolerance for angle comparisons modulo 2*pi.
ANGLE_TOL = 1e-9


def norm_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi).  Float % is fmod with 2*pi added to a
    negative remainder (which can round up to 2*pi, read as 0.0), and a zero
    remainder is +0.0.  An infinite or NaN angle leaves NaN: ValueError."""
    t = theta % TWO_PI
    if t < TWO_PI:
        return t
    if t == TWO_PI:
        return 0.0
    raise ValueError(f"angle must be finite, got {theta!r}")


def angle_dist(a: float, b: float) -> float:
    """Distance between two angles modulo 2*pi, in [0, pi]."""
    d = abs(norm_angle(a) - norm_angle(b))
    return min(d, TWO_PI - d)


def unit_pair(a: float, b: float) -> tuple[float, float]:
    """The pair (a, b) scaled to a^2 + b^2 = 1, its first nonzero coordinate
    made positive: the fields of BoundaryPoint(a, b).  A pair whose norm is
    below 1e-15 or not finite raises ValueError."""
    n = math.hypot(a, b)
    if not 1e-15 <= n < math.inf:
        raise ValueError(f"boundary point needs a nonzero pair of finite norm, got ({a!r}, {b!r})")
    a, b = a / n, b / n
    if a < -MATRIX_TOL or (abs(a) <= MATRIX_TOL and b < 0.0):
        return -a, -b
    return a, b


def canonical_entries(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """The matrix [[a, b], [c, d]] rescaled to determinant 1, its first
    nonzero entry made positive: the fields of MoebiusMap(a, b, c, d).  A
    determinant that is not positive or not finite raises ValueError."""
    det = a * d - b * c
    if not 0.0 < det < math.inf:
        raise ValueError(f"matrix must have a finite positive determinant, got {det!r}")
    # Keep entries bit-stable when the matrix is already normalized:
    # renormalizing a normalized matrix must be the identity map on bits.
    if abs(det - 1.0) > 1e-12:
        s = math.sqrt(det)
        a, b, c, d = a / s, b / s, c / s, d / s
    # the first entry above MATRIX_TOL in size sets the sign (if none is: no flip)
    lead = (a if abs(a) > MATRIX_TOL else b if abs(b) > MATRIX_TOL
            else c if abs(c) > MATRIX_TOL else d)
    if lead < -MATRIX_TOL:
        a, b, c, d = -a, -b, -c, -d
    # adding 0.0 clears -0.0 entries left over from the sign flip
    return a + 0.0, b + 0.0, c + 0.0, d + 0.0


def frame_parts(a: float, b: float, c: float, d: float) -> tuple[complex, float]:
    """The fields of frame(t) for t with canonical entries a, b, c, d."""
    w = c * 1j + d
    z = (a * 1j + b) / w
    if not z.imag > 0.0:
        raise ValueError("frame point must lie in the open upper half-plane")
    # atan2 reads arg w as 0 where it underflows, where cmath.phase would
    # raise OverflowError; elsewhere the two give the same bits
    return z, norm_angle(-2.0 * math.atan2(w.imag, w.real))


class BoundaryPoint:
    """Point of the boundary circle R u {oo} as a projective pair (a : b).

    The pair is normalized to a^2 + b^2 = 1 with the first nonzero coordinate
    positive, so each point has one stored pair.  (1, 0) is the point at
    infinity.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = unit_pair(a, b)

    @classmethod
    def from_real(cls, x: float) -> "BoundaryPoint":
        return cls(x, 1.0)

    @classmethod
    def infinity(cls) -> "BoundaryPoint":
        return cls(1.0, 0.0)

    def is_infinity(self) -> bool:
        return abs(self.b) <= ANGLE_TOL

    def value(self) -> float:
        """Real coordinate a/b; raises at infinity."""
        if self.is_infinity():
            raise ValueError("boundary point at infinity has no real value")
        return self.a / self.b

    def __repr__(self):
        if self.is_infinity():
            return "BoundaryPoint(oo)"
        return f"BoundaryPoint({self.value():.12g})"


def cross(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Projective determinant [p, q]; zero iff the points coincide."""
    return p.a * q.b - p.b * q.a


def checked_namedtuple(name: str, fields):
    """namedtuple base of a record whose __new__ checks its fields: its
    _make, through which _replace builds, calls the class, so they check too."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Frame(checked_namedtuple("Frame", ("z", "theta"))):
    """Image of a group element under the frame map: a point z of the
    upper half-plane together with the direction theta in [0, 2*pi) of the
    derivative at i.  The scale of the derivative carries no information and
    is dropped.  Construction checks Im z > 0 and reduces theta to [0, 2*pi).
    """

    __slots__ = ()

    def __new__(cls, z: complex, theta: float):
        if not z.imag > 0.0:
            raise ValueError("frame point must lie in the open upper half-plane")
        return tuple.__new__(cls, (z, norm_angle(theta)))


class MoebiusMap:
    """Element of PSL(2, R): matrix [[a, b], [c, d]], det 1, canonical sign."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        self.a, self.b, self.c, self.d = canonical_entries(a, b, c, d)

    def __repr__(self):
        return f"MoebiusMap({self.a:.12g}, {self.b:.12g}, {self.c:.12g}, {self.d:.12g})"


def identity() -> MoebiusMap:
    return MoebiusMap(1.0, 0.0, 0.0, 1.0)


def compose(s: MoebiusMap, t: MoebiusMap) -> MoebiusMap:
    """Group law: the map z -> s(t(z))."""
    return MoebiusMap(
        s.a * t.a + s.b * t.c,
        s.a * t.b + s.b * t.d,
        s.c * t.a + s.d * t.c,
        s.c * t.b + s.d * t.d,
    )


def gamma() -> MoebiusMap:
    """The order-3 element z -> (z - 1)/z cyclically permuting (0, 1, oo)."""
    return MoebiusMap(1.0, -1.0, 1.0, 0.0)


def tau() -> MoebiusMap:
    """The order-2 element z -> -1/z swapping 0 and oo."""
    return MoebiusMap(0.0, -1.0, 1.0, 0.0)


GAMMA = gamma()
_GA, _GB, _GC, _GD = GAMMA.a, GAMMA.b, GAMMA.c, GAMMA.d  # read once for gamma_frame_parts


def sigma(lam: float) -> MoebiusMap:
    """The scaling z -> lam * z for lam > 0."""
    if not lam > 0.0:
        raise ValueError(f"sigma needs a positive scale, got {lam!r}")
    r = math.sqrt(lam)
    return MoebiusMap(r, 0.0, 0.0, 1.0 / r)


def apply_boundary(t: MoebiusMap, x: BoundaryPoint) -> BoundaryPoint:
    """Projective action on the boundary circle."""
    return BoundaryPoint(t.a * x.a + t.b * x.b, t.c * x.a + t.d * x.b)


def apply_interior(t: MoebiusMap, z: complex) -> complex:
    """Action (az + b)/(cz + d) on the open upper half-plane."""
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("apply_interior needs Im z > 0")
    return (t.a * z + t.b) / (t.c * z + t.d)


def frame(t: MoebiusMap) -> Frame:
    """Frame of t: z = t(i) and theta = arg dt/dz(i) = arg 1/(ci + d)^2."""
    return tuple.__new__(Frame, frame_parts(t.a, t.b, t.c, t.d))


def gamma_frame_parts(z: complex, theta: float) -> tuple[complex, float]:
    """The fields of gamma_frame_action(Frame(z, theta)), with the checks of
    apply_interior and of Frame."""
    if not z.imag > 0.0:
        raise ValueError("apply_interior needs Im z > 0")
    w = (_GA * z + _GB) / (_GC * z + _GD)
    # arg z, before the check on w as in Frame(w, theta); atan2 reads 0 where
    # it underflows, where cmath.phase would raise OverflowError
    theta -= 2.0 * math.atan2(z.imag, z.real)
    if not w.imag > 0.0:
        raise ValueError("frame point must lie in the open upper half-plane")
    return w, norm_angle(theta)


def gamma_frame_action(f: Frame) -> Frame:
    """Action of gamma on frames: (z, theta) -> (gamma(z), theta - 2 arg z).

    This is the frame-coordinate form of left composition with gamma; tau acts
    on theta the same way but sends z to -1/z.
    """
    return tuple.__new__(Frame, gamma_frame_parts(*f))


def gamma_orbit(f: Frame) -> tuple[Frame, Frame, Frame]:
    """The orbit (f, gamma f, gamma^2 f) of a frame under the order-3 gamma."""
    f1 = gamma_frame_action(f)
    return (f, f1, gamma_frame_action(f1))
