import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from cswalls.charges import (
    ChargeData,
    ComplexRational,
    GLElement,
    PlanePoint,
    central_charge,
    frame_determinant,
    gl_act,
    gluing_presentation,
    heart_phase,
    identity_element,
    mu_alpha,
    normalize_type_b,
    nu,
    type_b_triple,
)
from cswalls.errors import (
    DegenerateFrame,
    DomainError,
    InconsistentLift,
    LowerHalfPlane,
    NegativeAlpha,
    WrongOrientation,
    ZeroCharge,
)
from cswalls.lattice import NumClass


def rng_class(rng, bound=9):
    return NumClass(rng.randint(-bound, bound), rng.randint(-bound, bound),
                    rng.randint(-bound, bound))


def rng_fraction(rng, num=60, den=9):
    return F(rng.randint(-num, num), rng.randint(1, den))


def rng_element(rng, windings=2):
    while True:
        entries = [rng_fraction(rng, 6, 4) for _ in range(4)]
        try:
            return GLElement(*entries, rng.randint(-windings, windings))
        except DomainError:
            continue


def test_central_charge_examples():
    z = central_charge(NumClass(0, 0, 1), PlanePoint(F(7), F(-2)))
    assert (z.re, z.im) == (-1, 0)
    z = central_charge(NumClass(1, 0, 0), PlanePoint(F(-2), F(3)))
    assert (z.re, z.im) == (3, 2)
    z = central_charge(NumClass(1, 4, -5), PlanePoint(F(4), F(-5)))
    assert z.is_zero()


def test_central_charge_kernel_at_rational_points():
    rng = random.Random(21)
    for _ in range(100):
        b, w = rng_fraction(rng), rng_fraction(rng)
        q = b.denominator * w.denominator
        v = NumClass(q, int(b * q), int(w * q))
        assert central_charge(v, PlanePoint(b, w)).is_zero()


def test_central_charge_additive():
    rng = random.Random(22)
    for _ in range(200):
        v1, v2 = rng_class(rng), rng_class(rng)
        p = PlanePoint(rng_fraction(rng), rng_fraction(rng))
        lhs = central_charge(v1 + v2, p)
        rhs = central_charge(v1, p) + central_charge(v2, p)
        assert (lhs.re, lhs.im) == (rhs.re, rhs.im)


def test_nu_examples():
    assert nu(NumClass(2, 3, 1), PlanePoint(F(0), F(2))) == -1
    assert nu(NumClass(1, 2, 5), PlanePoint(F(2), F(17))) == math.inf
    assert nu(NumClass(0, 4, 6), PlanePoint(F(5), F(-1))) == F(3, 2)


def test_mu_alpha_examples():
    assert mu_alpha(NumClass(2, 3, 1), F(2)) == F(5, 2)
    assert mu_alpha(NumClass(0, 4, 7), F(1)) == math.inf
    assert mu_alpha(NumClass(1, -7, 3), F(0)) == -7
    with pytest.raises(NegativeAlpha):
        mu_alpha(NumClass(1, 0, 0), F(-1, 2))


def test_heart_phase():
    p = PlanePoint(F(1), F(1))
    assert heart_phase(NumClass(0, 0, 1), p) == 1.0
    assert heart_phase(NumClass(0, 1, 0), p) == 0.5
    assert 0 < heart_phase(NumClass(0, 1, -1), p) < 0.5
    with pytest.raises(ZeroCharge):
        heart_phase(NumClass(1, 1, 1), PlanePoint(F(1), F(1)))
    with pytest.raises(LowerHalfPlane):
        heart_phase(NumClass(1, 0, 0), PlanePoint(F(1), F(1)))  # Z = 1 - i
    with pytest.raises(LowerHalfPlane):
        heart_phase(NumClass(0, 0, -1), PlanePoint(F(1), F(1)))  # Z = +1


def test_large_volume_ordering_matches_classical_slope():
    # beyond the unique crossing w the slice-slope comparison agrees with
    # the classical slope comparison
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        r1, r2 = rng.randint(1, 6), rng.randint(1, 6)
        v1 = NumClass(r1, rng.randint(-9, 9), rng.randint(-9, 9))
        v2 = NumClass(r2, rng.randint(-9, 9), rng.randint(-9, 9))
        b = min(F(v1.d, v1.r), F(v2.d, v2.r)) - F(rng.randint(1, 5))
        mu1, mu2 = F(v1.d, v1.r), F(v2.d, v2.r)
        if mu1 == mu2:
            continue
        # crossing point of the two nu values along the vertical line at b:
        # the difference has numerator c_coef + w * a_coef with
        # a_coef = r1*r2*(mu2 - mu1) != 0 here
        den1, den2 = v1.d - b * v1.r, v2.d - b * v2.r
        a_coef = -v2.r * den1 + v1.r * den2
        c_coef = v2.n * den1 - v1.n * den2
        start = -c_coef / a_coef + 1
        for w in (start, start + 3, start + 10):
            lhs = nu(v2, PlanePoint(b, w)) - nu(v1, PlanePoint(b, w))
            assert (lhs > 0) == (mu2 > mu1)
        checked += 1


def test_gl_element_validation_and_lift():
    with pytest.raises(DomainError):
        GLElement(F(1), F(0), F(0), F(-1), 0)
    for winding in (True, 1.0):
        with pytest.raises(TypeError, match="winding must be an int"):
            GLElement(F(1), F(0), F(0), F(1), winding)
    el = GLElement(F(0), F(-1), F(1), F(0), 0)  # rotation by pi/2
    assert el.lift_at_zero() == pytest.approx(0.5)
    assert el.lift_at_zero_bounds() == (F(1, 2), F(1, 2))
    el2 = GLElement(F(1), F(0), F(1), F(1), -1)
    lo, hi = el2.lift_at_zero_bounds()
    assert (lo, hi) == (F(-2), F(-3, 2))
    assert lo < el2.lift_at_zero() < hi


def _loop_lift_value(el, t):
    """`GLElement.lift_value` as it was before it wrapped t with
    `_wrap_to_unit`: t moves to (-1, 1] by steps of 2, kept as the
    reference (it never returns for a t too large to step)."""
    shift = 0
    while t > 1:
        t -= 2
        shift += 2
    while t <= -1:
        t += 2
        shift -= 2
    base = math.atan2(float(el.m21), float(el.m11))
    x, y = math.cos(math.pi * t), math.sin(math.pi * t)
    fx = float(el.m11) * x + float(el.m12) * y
    fy = float(el.m21) * x + float(el.m22) * y
    delta = math.atan2(fy, fx) - base
    while delta > math.pi:
        delta -= 2 * math.pi
    while delta <= -math.pi:
        delta += 2 * math.pi
    if t >= 0 and delta < -math.pi / 2:
        delta += 2 * math.pi
    elif t < 0 and delta > math.pi / 2:
        delta -= 2 * math.pi
    return base / math.pi + 2 * el.winding + delta / math.pi + shift


_ENTRIES = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_ELEMENTS = st.tuples(_ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES,
                      st.integers(-3, 3)).filter(
    lambda e: e[0] * e[3] > e[1] * e[2]).map(lambda e: GLElement(*e))


@settings(max_examples=150, deadline=None)
@given(_ELEMENTS, st.floats(min_value=-1e6, max_value=1e6))
@example(identity_element(), 1e6)
@example(identity_element(), -1e6)
@example(identity_element(), -0.0)
@example(identity_element(), 1.0)
@example(identity_element(), -1.0)
@example(GLElement(F(0), F(-1), F(1), F(0), 1), 3.0000000000000004)
def test_lift_value_matches_the_stepping_loop_bit_for_bit(el, t):
    assert el.lift_value(t).hex() == _loop_lift_value(el, t).hex()


def test_lift_value_of_a_huge_t_returns_and_a_nonfinite_t_raises():
    el = identity_element()
    for t in (1e300, -1e300, 2.0 ** 60 + 2.0 ** 8):
        assert math.isfinite(el.lift_value(t))
    assert el.lift_value(2.0 ** 60 + 1024) == 2.0 ** 60 + 1024
    # an int beyond the float range has no float, as an infinity has none
    for t in (math.inf, -math.inf, math.nan, 10**400, -10**400):
        with pytest.raises(DomainError, match="must be finite"):
            el.lift_value(t)


def test_gl_act_identity_and_scaling():
    c = type_b_triple(PlanePoint(F(-2), F(3)), with_lifts=True)
    out = gl_act(c, identity_element())
    assert out.charges() == c.charges()
    assert out.lifts == c.lifts
    two = GLElement(F(2), F(0), F(0), F(2), 0)
    halved = gl_act(c, two)
    assert halved.z1 == ComplexRational(F(-1, 2), F(0))
    assert halved.z2 == ComplexRational(F(0), F(1, 2))
    assert halved.z3 == ComplexRational(F(3, 2), F(1))
    assert halved.lifts == c.lifts


def test_gl_act_rotation_by_pi():
    c = type_b_triple(PlanePoint(F(-2), F(3)), with_lifts=True)
    neg = GLElement(F(-1), F(0), F(0), F(-1), 0)
    assert neg.lift_at_zero() == pytest.approx(1.0)
    out = gl_act(c, neg)
    assert out.z1 == ComplexRational(F(1), F(0))
    assert out.z2 == ComplexRational(F(0), F(-1))
    assert out.z3 == ComplexRational(F(-3), F(-2))
    for old, new in zip(c.lifts, out.lifts):
        assert new == pytest.approx(old - 1)


def test_gl_act_preserves_flags_and_lift_consistency():
    rng = random.Random(31)
    flags = frozenset({"stable_O0", "stable_pt"})
    for _ in range(100):
        p = PlanePoint(rng_fraction(rng), rng_fraction(rng))
        c = type_b_triple(p, with_lifts=True, flags=flags)
        el = rng_element(rng)
        out = gl_act(c, el)  # ChargeData validates lift consistency
        assert out.flags == flags
        back = gl_act(out, identity_element())
        assert back.charges() == out.charges()


def test_type_b_triple_examples():
    c = type_b_triple(PlanePoint(F(-2), F(3)))
    assert c.z1 == ComplexRational(F(-1), F(0))
    assert c.z2 == ComplexRational(F(0), F(1))
    assert c.z3 == ComplexRational(F(3), F(2))
    c0 = type_b_triple(PlanePoint(F(0), F(1)))
    assert c0.z3 == ComplexRational(F(1), F(0))


def test_normalize_type_b_examples():
    c = type_b_triple(PlanePoint(F(-2), F(3)))
    assert normalize_type_b(c) == PlanePoint(F(-2), F(3))
    scaled = ChargeData(
        ComplexRational(F(-2), F(0)),
        ComplexRational(F(0), F(2)),
        ComplexRational(F(6), F(4)),
    )
    assert normalize_type_b(scaled) == PlanePoint(F(-2), F(3))


def test_normalize_type_b_orientation_and_degeneracy():
    # frame (1, i) has positive determinant: no orientation-preserving
    # map takes it to (-1, i)
    bad = ChargeData(
        ComplexRational(F(1), F(0)),
        ComplexRational(F(0), F(1)),
        ComplexRational(F(1), F(1)),
    )
    assert frame_determinant(bad) == 1
    with pytest.raises(WrongOrientation):
        normalize_type_b(bad)
    # frame (i, 1) has negative determinant and is reachable from the
    # canonical frame by a rotation, so it normalizes
    ok = ChargeData(
        ComplexRational(F(0), F(1)),
        ComplexRational(F(1), F(0)),
        ComplexRational(F(2), F(-3)),
    )
    assert frame_determinant(ok) == -1
    assert normalize_type_b(ok) == PlanePoint(F(-2), F(3))
    degenerate = ChargeData(
        ComplexRational(F(1), F(2)),
        ComplexRational(F(-2), F(-4)),
        ComplexRational(F(1), F(1)),
    )
    with pytest.raises(DegenerateFrame):
        normalize_type_b(degenerate)


def test_normalize_round_trip_under_action():
    rng = random.Random(41)
    for _ in range(150):
        p = PlanePoint(
            F(rng.randint(-50, -1), rng.randint(1, 9)),
            F(rng.randint(-50, 50), rng.randint(1, 9)),
        )
        el = rng_element(rng)
        acted = gl_act(type_b_triple(p, with_lifts=True), el)
        assert normalize_type_b(acted) == p


def test_gluing_presentation_examples():
    el = gluing_presentation(PlanePoint(F(-1), F(2)))
    # M^{-1} = [[0, 2], [-1, 1]]
    assert el.apply_inverse(F(1), F(0)) == (F(0), F(-1))
    assert el.apply_inverse(F(0), F(1)) == (F(2), F(1))
    assert el.det() > 0
    assert el.lift_at_zero() == pytest.approx(0.25)
    el2 = gluing_presentation(PlanePoint(F(-1), F(1)))
    assert el2.apply_inverse(F(1), F(0)) == (F(0), F(-1))
    assert el2.apply_inverse(F(0), F(1)) == (F(1), F(1))
    assert el2.lift_at_zero() == pytest.approx(0.25)
    with pytest.raises(DomainError):
        gluing_presentation(PlanePoint(F(1), F(1)))
    with pytest.raises(DomainError):
        gluing_presentation(PlanePoint(F(-1), F(0)))


def test_gluing_presentation_reproduces_slice_charge():
    rng = random.Random(51)
    for _ in range(100):
        p = PlanePoint(
            F(rng.randint(-40, -1), rng.randint(1, 7)),
            F(rng.randint(1, 40), rng.randint(1, 7)),
        )
        el = gluing_presentation(p)
        lo, hi = el.lift_at_zero_bounds()
        assert F(0) < lo and hi < F(1, 2) or (lo == hi and 0 < lo < F(1, 2)) \
            or (lo, hi) == (F(0), F(1, 2))
        v = rng_class(rng)
        gre, gim = el.apply_inverse(F(-v.d), F(v.r))
        z = central_charge(v, p)
        assert (-v.n + gre, gim) == (z.re, z.im)


def test_charge_data_validation():
    with pytest.raises(ZeroCharge):
        ChargeData(
            ComplexRational(F(0), F(0)),
            ComplexRational(F(0), F(1)),
            ComplexRational(F(1), F(0)),
            (1.0, None, None),
        )
    with pytest.raises(InconsistentLift):
        ChargeData(
            ComplexRational(F(-1), F(0)),
            ComplexRational(F(0), F(1)),
            ComplexRational(F(1), F(0)),
            (0.5, None, None),  # z1 = -1 has phase 1, not 1/2
        )
    with pytest.raises(DomainError):
        ChargeData(
            ComplexRational(F(-1), F(0)),
            ComplexRational(F(0), F(1)),
            ComplexRational(F(1), F(0)),
            flags=frozenset({"bogus"}),
        )


@pytest.mark.parametrize("lifts, tol", [
    ((math.nan, None, None), 1e-9),
    ((None, math.inf, None), 1e-9),
    ((None, None, -math.inf), 1e-9),
    ((None, None, None), math.nan),
    ((1.0, 0.5, 0.0), math.nan),  # would pass every lift
    ((None, None, None), math.inf),
    ((None, None, None), 0.0),
    ((None, None, None), -1e-9),
    ((10**400, None, None), 1e-9),
    ((None, None, None), 10**400),
], ids=["lift-nan", "lift-inf", "lift-minus-inf", "tol-nan",
        "tol-nan-with-lifts", "tol-inf", "tol-zero", "tol-negative",
        "lift-huge-int", "tol-huge-int"])
def test_charge_data_refuses_a_nonfinite_lift_or_a_bad_tol(lifts, tol):
    with pytest.raises(DomainError, match="must be (a )?finite"):
        ChargeData(
            ComplexRational(F(-1), F(0)),
            ComplexRational(F(0), F(1)),
            ComplexRational(F(1), F(0)),
            lifts, tol=tol,
        )
