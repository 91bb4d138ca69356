import cmath
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from expcircle.moebius import (
    GAMMA,
    BoundaryPoint,
    Frame,
    MoebiusMap,
    apply_boundary,
    apply_interior,
    canonical_entries,
    compose,
    frame,
    frame_parts,
    gamma,
    gamma_frame_action,
    gamma_frame_parts,
    identity,
    norm_angle,
    sigma,
    tau,
    unit_pair,
)


def rand_map(rng):
    while True:
        a, b, c, d = (rng.uniform(-3, 3) for _ in range(4))
        if a * d - b * c > 0.1:
            return MoebiusMap(a, b, c, d)


def test_construction_rejects_nonpositive_det():
    with pytest.raises(ValueError):
        MoebiusMap(1, 0, 0, -1)
    with pytest.raises(ValueError):
        MoebiusMap(1, 2, 2, 4)
    # a NaN determinant is not positive either
    for entries in ((math.nan, 0, 0, 1), (1, 0, math.nan, 1), (math.nan,) * 4):
        with pytest.raises(ValueError, match="positive determinant"):
            MoebiusMap(*entries)


def test_normalization_is_unique():
    m = MoebiusMap(-2, 0, 0, -2)
    assert m.approx_eq(identity())
    # sign canonicalization: first nonzero entry positive
    t = MoebiusMap(0, -3, 3, 0)
    assert t.c < 0 < t.b  # canonical rep of tau has entries (0, 1, -1, 0)


def test_compose_identity_bit_identical():
    rng = random.Random(7)
    for _ in range(50):
        t = rand_map(rng)
        u = compose(t, identity())
        assert u.entries() == t.entries()


def test_compose_examples():
    t = MoebiusMap(2, 1, 1, 1)
    assert compose(identity(), t).approx_eq(t)
    g = gamma()
    assert compose(g, compose(g, g)).approx_eq(identity())
    assert compose(tau(), tau()).approx_eq(identity())


def test_inverse():
    rng = random.Random(11)
    for _ in range(100):
        t = rand_map(rng)
        assert compose(t, t.inverse()).approx_eq(identity(), tol=1e-12)


def test_associativity():
    rng = random.Random(13)
    for _ in range(100):
        a, b, c = rand_map(rng), rand_map(rng), rand_map(rng)
        assert compose(a, compose(b, c)).approx_eq(compose(compose(a, b), c), tol=1e-9)


def test_gamma_on_boundary():
    g = gamma()
    one = BoundaryPoint.from_real(1.0)
    zero = BoundaryPoint.from_real(0.0)
    inf = BoundaryPoint.infinity()
    assert apply_boundary(g, one).approx_eq(zero)
    assert apply_boundary(g, inf).approx_eq(one)
    assert apply_boundary(g, zero).approx_eq(inf)


def test_apply_interior():
    assert apply_interior(identity(), 1j) == 1j
    assert abs(apply_interior(sigma(2.0), 1j) - 2j) < 1e-12
    fixed = cmath.exp(1j * math.pi / 3)
    assert abs(apply_interior(gamma(), fixed) - fixed) < 1e-12
    with pytest.raises(ValueError):
        apply_interior(gamma(), 1.0 - 0.5j)
    for z in (complex(0.0, math.nan), complex(math.nan, math.nan)):
        with pytest.raises(ValueError, match="needs Im z > 0"):
            apply_interior(identity(), z)


def test_frame_examples():
    f = frame(identity())
    assert abs(f.z - 1j) < 1e-12 and f.theta == 0.0
    # tau(i) = i and tau'(i) = 1/i^2 = -1
    f = frame(tau())
    assert abs(f.z - 1j) < 1e-12 and abs(f.theta - math.pi) < 1e-12
    # sigma_2(i) = 2i with positive real derivative
    f = frame(sigma(2.0))
    assert abs(f.z - 2j) < 1e-12 and f.theta < 1e-12


def test_named_element_relations():
    assert sigma(1.0).approx_eq(identity())
    lam = 3.0
    lhs = compose(tau(), compose(sigma(lam), tau()))
    assert lhs.approx_eq(sigma(1.0 / lam), tol=1e-12)
    assert compose(sigma(2.0), sigma(5.0)).approx_eq(sigma(10.0), tol=1e-12)
    with pytest.raises(ValueError):
        sigma(0.0)
    with pytest.raises(ValueError):
        sigma(-2.0)
    with pytest.raises(ValueError, match="positive scale"):
        sigma(math.nan)


def test_scaling_relations_random():
    rng = random.Random(17)
    for _ in range(1000):
        lam = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        mu = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        assert compose(tau(), compose(sigma(lam), tau())).approx_eq(sigma(1.0 / lam), tol=1e-12)
        assert compose(sigma(lam), sigma(mu)).approx_eq(sigma(lam * mu), tol=1e-12)
    assert compose(tau(), tau()).approx_eq(identity(), tol=1e-12)


def test_frame_equivariance_gamma():
    rng = random.Random(19)
    for _ in range(200):
        t = rand_map(rng)
        f = frame(t)
        lhs = frame(compose(gamma(), t))
        rhs = gamma_frame_action(f)
        assert abs(lhs.z - rhs.z) < 1e-9
        assert abs(norm_angle(lhs.theta - rhs.theta + math.pi) - math.pi) < 1e-9


def test_gamma_is_double_reflection():
    # gamma acts on the half-plane as inversion in |z| = 1 followed by
    # reflection about Re z = 1/2, i.e. a rotation by 4pi/3 about e^{i pi/3}
    rng = random.Random(29)
    for _ in range(1000):
        z = complex(rng.uniform(-5, 5), math.exp(rng.uniform(-2, 2)))
        r2 = z / (abs(z) ** 2)
        r1 = 1 - r2.conjugate()
        assert abs(apply_interior(gamma(), z) - r1) < 1e-12


def test_boundary_point_normal_form():
    p = BoundaryPoint(-2.0, -2.0)
    assert p.a > 0 and abs(p.a**2 + p.b**2 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        BoundaryPoint(0.0, 0.0)
    assert BoundaryPoint.infinity().is_infinity()
    assert BoundaryPoint.from_real(0.5).value() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        BoundaryPoint.infinity().value()


def test_frame_contract():
    for z in (1.0 + 0.0j, 2.0 - 1.0j, -3.0 + 0.0j, complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="frame point must lie in the open upper half-plane"):
            Frame(z, 0.0)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angle must be finite"):
            Frame(1j, theta)
    f = Frame(0.5 + 2.0j, 7.0)
    assert f.theta == norm_angle(7.0)
    assert Frame(1j, -1.0).theta == norm_angle(-1.0)
    with pytest.raises(AttributeError):
        f.theta = 0.0
    with pytest.raises(AttributeError):
        f.extra = 0.0
    g = Frame(0.5 + 2.0j, 7.0 - 2.0 * math.pi)
    assert f == g and hash(f) == hash(g)
    assert len({f, g, Frame(1j, 0.0)}) == 2
    assert repr(Frame(1j, 0.5)) == "Frame(z=1j, theta=0.5)"
    assert f.approx_eq(g) and not f.approx_eq(Frame(1j, 0.0))
    # _replace builds a new frame and keeps both checks
    assert f._replace(theta=7.0).theta == norm_angle(7.0)
    with pytest.raises(ValueError):
        f._replace(z=-1j)


def test_gamma_and_tau_constants():
    # the frame action uses the module constant; gamma() still returns a
    # new map with the same entries on every call
    assert GAMMA.entries() == gamma().entries() and GAMMA is not gamma()
    rng = random.Random(31)
    for _ in range(50):
        f = frame(rand_map(rng))
        lhs = gamma_frame_action(f)
        assert lhs.z == apply_interior(gamma(), f.z)
        assert lhs.theta == norm_angle(f.theta - 2.0 * cmath.phase(f.z))


# frames of random maps; points far out whose gamma image underflows onto
# the real axis, the second with an arg z that underflows too (cmath.phase
# raises OverflowError there, the action reads arg z as 0 and refuses the
# frame like every other); points on and below the real axis
def test_gamma_frame_parts_give_the_fields_of_the_old_action():
    rng = random.Random(32)
    frames = [tuple(frame(rand_map(rng))) for _ in range(120)]
    frames += [(complex(1e300, 1e10), 0.5), (complex(1e200, 1e-200), 0.5),
               (complex(2.0, 0.0), 1.0), (complex(-1.0, -1.0), 1.0)]
    for z, theta in frames:
        try:
            want = Frame(apply_interior(GAMMA, z), theta - 2.0 * cmath.phase(z))
        except (ValueError, OverflowError) as exc:
            if isinstance(exc, OverflowError):
                exc = ValueError("frame point must lie in the open upper half-plane")
            for action in (lambda: gamma_frame_parts(z, theta),
                           lambda: gamma_frame_action(tuple.__new__(Frame, (z, theta)))):
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    action()
            continue
        parts = gamma_frame_parts(z, theta)
        assert type(parts) is tuple
        assert _bits(parts) == _bits(want) == _bits(gamma_frame_action(Frame(z, theta)))


def test_non_finite_pairs_and_maps_are_refused():
    # these once stored (nan, 0.0), (nan, nan), (nan, 0, 0, 0) and, with a
    # determinant that overflows, the zero matrix
    for a, b in ((math.inf, 1.0), (math.nan, 1.0)):
        for build in (unit_pair, BoundaryPoint):
            with pytest.raises(ValueError, match="nonzero pair"):
                build(a, b)
    for entries in ((math.inf, 0, 0, 1), (1e200, 1e200, 0, 1e200)):
        for build in (canonical_entries, MoebiusMap):
            with pytest.raises(ValueError, match="positive determinant"):
                build(*entries)


def _bits(values):
    return [x.hex() if isinstance(x, float) else (x.real.hex(), x.imag.hex()) for x in values]


# entries with both signs, exact zeros and tiny values, where the sign rule
# and the rescale of the float functions branch
ENTRY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-13, -1e-13]) | st.floats(-4.0, 4.0)


@given(ENTRY, ENTRY)
def test_unit_pair_gives_the_fields_of_a_boundary_point(a, b):
    if math.hypot(a, b) < 1e-15:
        with pytest.raises(ValueError, match="nonzero pair"):
            unit_pair(a, b)
        with pytest.raises(ValueError, match="nonzero pair"):
            BoundaryPoint(a, b)
        return
    p = BoundaryPoint(a, b)
    assert _bits(unit_pair(a, b)) == _bits((p.a, p.b))


@given(ENTRY, ENTRY, ENTRY, ENTRY)
def test_canonical_entries_and_frame_parts_give_the_fields_of_the_objects(a, b, c, d):
    if not a * d - b * c > 0.0:
        with pytest.raises(ValueError, match="positive determinant"):
            canonical_entries(a, b, c, d)
        with pytest.raises(ValueError, match="positive determinant"):
            MoebiusMap(a, b, c, d)
        return
    t = MoebiusMap(a, b, c, d)
    entries = canonical_entries(a, b, c, d)
    assert _bits(entries) == _bits(t.entries())
    parts = frame_parts(*entries)
    assert type(parts) is tuple
    assert _bits(parts) == _bits(frame(t)) == _bits(Frame(*parts))
