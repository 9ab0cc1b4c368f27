"""Central charges on the (b, w)-slice and the covering-group action.

Charges of lattice classes are exact complex rationals.  A covering-group
element is an orientation-preserving rational 2x2 matrix together with an
integer winding fixing the phase lift; its action post-composes the
inverse matrix on charge values and transports lifts through the induced
circle map.  Convention: an element (M, f) satisfies
M*u(pi*phi) in R+*u(pi*f(phi)), and it acts on a charge Z as M^{-1} o Z.

Region inequalities on exact rational data are decided exactly; phase
lifts are floats compared against a tolerance (default 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import (
    DegenerateFrame,
    DomainError,
    InconsistentLift,
    LowerHalfPlane,
    NegativeAlpha,
    WrongOrientation,
    ZeroCharge,
)
from .envelopes import _frac
from .lattice import NumClass

DEFAULT_TOL = 1e-9

STABLE_FLAGS = frozenset(
    {"stable_O0", "stable_pt", "stable_sheafO", "stable_OO"}
)


@dataclass(frozen=True)
class PlanePoint:
    """Exact rational point (b, w) of the slice."""

    b: Fraction
    w: Fraction

    def __post_init__(self):
        object.__setattr__(self, "b", _frac(self.b))
        object.__setattr__(self, "w", _frac(self.w))

    def as_tuple(self) -> tuple:
        return (self.b, self.w)


@dataclass(frozen=True)
class ComplexRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __add__(self, other):
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def principal_phase(self) -> float:
        """atan2 phase divided by pi, in (-1, 1]."""
        return math.atan2(float(self.im), float(self.re)) / math.pi

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


@dataclass(frozen=True)
class GLElement:
    """Orientation-preserving rational matrix plus a phase-lift winding."""

    m11: Fraction
    m12: Fraction
    m21: Fraction
    m22: Fraction
    winding: int = 0

    def __post_init__(self):
        for name in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.det() <= 0:
            raise DomainError(
                f"matrix determinant must be positive, got {self.det()}"
            )
        if isinstance(self.winding, bool) or not isinstance(self.winding, int):
            raise TypeError(f"winding must be an int, got {self.winding!r}")

    def det(self) -> Fraction:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply_inverse(self, re: Fraction, im: Fraction) -> tuple:
        det = self.det()
        return (
            (self.m22 * re - self.m12 * im) / det,
            (-self.m21 * re + self.m11 * im) / det,
        )

    def lift_at_zero(self) -> float:
        """The lift value f(0) = atan2(m21, m11)/pi + 2*winding."""
        return (
            math.atan2(float(self.m21), float(self.m11)) / math.pi
            + 2 * self.winding
        )

    def lift_at_zero_bounds(self) -> tuple:
        """Exact rational bounds (lo, hi) for f(0); lo == hi on quadrant
        boundaries (a vanishing matrix entry), an open interval inside."""
        shift = Fraction(2 * self.winding)
        m11, m21 = self.m11, self.m21
        if m21 == 0:
            v = Fraction(0) if m11 > 0 else Fraction(1)
            return (v + shift, v + shift)
        if m11 == 0:
            v = Fraction(1, 2) if m21 > 0 else Fraction(-1, 2)
            return (v + shift, v + shift)
        if m11 > 0 and m21 > 0:
            lo = Fraction(0)
        elif m11 < 0 and m21 > 0:
            lo = Fraction(1, 2)
        elif m11 < 0 and m21 < 0:
            lo = Fraction(-1)
        else:
            lo = Fraction(-1, 2)
        return (lo + shift, lo + Fraction(1, 2) + shift)

    def lift_value(self, t: float) -> float:
        """Evaluate the lift f at t.

        The circle map of an orientation-preserving matrix is strictly
        increasing and moves any arc of length pi to an arc of exactly
        length pi, so over t in [0, 1] the image angle advances by a
        value in [0, pi] (and in [-pi, 0] for t in [-1, 0]).  That pins
        the branch of the principal-value difference.  A t that is not
        finite raises DomainError.
        """
        if not _finite(t):
            raise DomainError(f"lift argument must be finite, got {t}")
        wrapped = _wrap_to_unit(t)
        t, shift = wrapped, t - wrapped
        base = math.atan2(float(self.m21), float(self.m11))
        x, y = math.cos(math.pi * t), math.sin(math.pi * t)
        fx = float(self.m11) * x + float(self.m12) * y
        fy = float(self.m21) * x + float(self.m22) * y
        delta = math.atan2(fy, fx) - base
        # wrap to (-pi, pi], then resolve the sign branch from t
        while delta > math.pi:
            delta -= 2 * math.pi
        while delta <= -math.pi:
            delta += 2 * math.pi
        if t >= 0 and delta < -math.pi / 2:
            delta += 2 * math.pi
        elif t < 0 and delta > math.pi / 2:
            delta -= 2 * math.pi
        return base / math.pi + 2 * self.winding + delta / math.pi + shift


def identity_element() -> GLElement:
    return GLElement(Fraction(1), Fraction(0), Fraction(0), Fraction(1), 0)


@dataclass(frozen=True)
class ChargeData:
    """Charge values of the three basis classes plus optional lift/flag data.

    z1, z2, z3 are the charges of (0,0,1), (0,1,0), (1,0,0).  Lifts are
    phase lifts (floats) for whichever of the three is known; flags are
    caller assertions about stability of the distinguished objects,
    drawn from STABLE_FLAGS.
    """

    z1: ComplexRational
    z2: ComplexRational
    z3: ComplexRational
    lifts: Tuple[Optional[float], Optional[float], Optional[float]] = (
        None,
        None,
        None,
    )
    flags: frozenset = frozenset()
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "flags", frozenset(self.flags))
        unknown = self.flags - STABLE_FLAGS
        if unknown:
            raise DomainError(f"unknown stability flags {sorted(unknown)}")
        lifts = tuple(self.lifts)
        if len(lifts) != 3:
            raise DomainError("lifts must be a triple")
        if not all(x is None or _finite(x) for x in lifts):
            raise DomainError(f"lifts must be finite, got {lifts}")
        if not (_finite(self.tol) and self.tol > 0):
            raise DomainError(
                f"tol must be a finite positive number, got {self.tol}")
        object.__setattr__(self, "lifts", lifts)
        flagged = set()
        if "stable_O0" in self.flags:
            flagged.add(0)
        if "stable_pt" in self.flags:
            flagged.add(1)
        if "stable_sheafO" in self.flags:
            flagged.add(2)
        for i, z in enumerate(self.charges()):
            if (lifts[i] is not None or i in flagged) and z.is_zero():
                raise ZeroCharge(f"z{i + 1} is zero but referenced")
            if lifts[i] is not None:
                delta = _wrap_to_unit(lifts[i] - z.principal_phase())
                if abs(delta) > self.tol:
                    raise InconsistentLift(
                        f"lift {lifts[i]} disagrees with direction of "
                        f"z{i + 1} = {z} by {delta}"
                    )

    def charges(self) -> tuple:
        return (self.z1, self.z2, self.z3)


def _finite(x) -> bool:
    """`math.isfinite(x)`, False for an int beyond the float range (where
    `math.isfinite` raises OverflowError)."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _wrap_to_unit(x: float) -> float:
    """Wrap a phase difference to (-1, 1]."""
    x = math.fmod(x, 2.0)
    if x > 1.0:
        x -= 2.0
    elif x <= -1.0:
        x += 2.0
    return x


def central_charge(v: NumClass, p: PlanePoint) -> ComplexRational:
    """Z(v) = (-n + w*r) + i*(d - b*r), exact."""
    return ComplexRational(-v.n + p.w * v.r, v.d - p.b * v.r)


def nu(v: NumClass, p: PlanePoint):
    """Slope (n - w*r)/(d - b*r); +inf when the denominator vanishes."""
    den = v.d - p.b * v.r
    if den == 0:
        return math.inf
    return (v.n - p.w * v.r) / den


def mu_alpha(v: NumClass, alpha):
    """Classical slope d/r + alpha*(n/r); +inf on rank-zero classes."""
    alpha = _frac(alpha)
    if alpha < 0:
        raise NegativeAlpha(f"alpha must be >= 0, got {alpha}")
    if v.r == 0:
        return math.inf
    return Fraction(v.d, v.r) + alpha * Fraction(v.n, v.r)


def heart_phase(v: NumClass, p: PlanePoint) -> float:
    """Phase in (0, 1] of a charge in the upper half plane or R_{<0}."""
    z = central_charge(v, p)
    if z.is_zero():
        raise ZeroCharge(f"zero charge for {v} at ({p.b},{p.w})")
    if z.im < 0 or (z.im == 0 and z.re > 0):
        raise LowerHalfPlane(f"charge {z} lies outside the heart range")
    if z.im == 0:
        return 1.0
    if z.re == 0:
        return 0.5
    return math.atan2(float(z.im), float(z.re)) / math.pi


def gl_act(c: ChargeData, elem: GLElement) -> ChargeData:
    """Act on charge data: each z_i becomes M^{-1} z_i, lifts transport
    through the inverse lifted circle map, flags are preserved."""
    new_z = []
    new_lifts = []
    for z, lift in zip(c.charges(), c.lifts):
        re, im = elem.apply_inverse(z.re, z.im)
        nz = ComplexRational(re, im)
        new_z.append(nz)
        if lift is None:
            new_lifts.append(None)
        else:
            t = nz.principal_phase()
            ft = elem.lift_value(t)
            m = round((lift - ft) / 2)
            new_lifts.append(t + 2 * m)
    return ChargeData(
        new_z[0],
        new_z[1],
        new_z[2],
        tuple(new_lifts),
        c.flags,
        c.tol,
    )


def type_b_triple(p: PlanePoint, with_lifts: bool = False,
                  flags: frozenset = frozenset()) -> ChargeData:
    """Charge data of the slice charge at (b, w): z1 = -1, z2 = i,
    z3 = w - i*b.  Canonical lifts (1, 1/2, principal) on request."""
    z1 = ComplexRational(Fraction(-1), Fraction(0))
    z2 = ComplexRational(Fraction(0), Fraction(1))
    z3 = ComplexRational(p.w, -p.b)
    lifts = (None, None, None)
    if with_lifts:
        lifts = (1.0, 0.5, z3.principal_phase())
    return ChargeData(z1, z2, z3, lifts, flags)


def frame_determinant(c: ChargeData) -> Fraction:
    """det of the column frame [z1 | z2]; negative on the valid orbit."""
    return c.z1.re * c.z2.im - c.z2.re * c.z1.im


def normalize_type_b(c: ChargeData) -> PlanePoint:
    """Recover (b, w) from charge data in the orbit of a slice charge.

    Solves M*z1 = -1, M*z2 = i over the rationals; the solution is
    orientation-preserving exactly when the frame determinant
    re(z1)*im(z2) - re(z2)*im(z1) is negative.  Then M*z3 = (w, -b).
    """
    det = frame_determinant(c)
    if det == 0:
        raise DegenerateFrame("z1 and z2 are linearly dependent")
    if det > 0:
        raise WrongOrientation(
            f"frame determinant {det} is positive; no orientation-"
            "preserving map sends z1 to -1 and z2 to i"
        )
    # M = [[-1,0],[0,1]] * [z1|z2]^{-1}
    a, b_ = c.z1.re, c.z2.re
    cc, d_ = c.z1.im, c.z2.im
    inv = ((d_ / det, -b_ / det), (-cc / det, a / det))
    m = ((-inv[0][0], -inv[0][1]), (inv[1][0], inv[1][1]))
    wx = m[0][0] * c.z3.re + m[0][1] * c.z3.im
    wy = m[1][0] * c.z3.re + m[1][1] * c.z3.im
    return PlanePoint(-wy, wx)


def gluing_presentation(p: PlanePoint) -> GLElement:
    """Covering-group element presenting the slice charge at b < 0, w > 0
    as glued from the trivial charge and a sheaf-side charge.

    The matrix solves M^{-1}(-d, r) = (w*r, d - b*r) for all (r, d), so
    M^{-1} = [[0, w], [-1, -b]]; the heart-matching lift has
    f(0) = 1/2 + arctan(b)/pi, inside (0, 1/2).
    """
    if p.b >= 0 or p.w <= 0:
        raise DomainError(
            f"gluing presentation needs b < 0 and w > 0, got ({p.b},{p.w})"
        )
    # inverse of [[0, w], [-1, -b]] is [[-b/w, -1], [1/w, 0]]
    return GLElement(-p.b / p.w, Fraction(-1), 1 / p.w, Fraction(0), 0)
