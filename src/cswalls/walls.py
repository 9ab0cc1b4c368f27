"""Wall-and-chamber geometry for a fixed lattice class in the (b, w)-slice.

For a fixed class v, a wall is the locus where some candidate class has
the same slice slope as v: always a rational line, through the projection
of v when v has nonzero rank.  This module computes wall lines, prunes
candidates with the quadratic support form, clips against a window and an
envelope model, decomposes the surviving complement into chambers, and
issues Bogomolov-type feasibility verdicts.  Everything is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .charges import PlanePoint, nu
from .envelopes import BNModel, RegionVerdict, region_uc, region_uf
from .errors import (
    DomainError,
    MixedOwnership,
    NotAboveEnvelope,
    ZeroAlpha,
    ZeroRank,
)
from .lattice import Genus, GenusLike, NumClass, genus_value, project


class Check(str, Enum):
    PASS = "Pass"
    FAIL = "Fail"
    UNKNOWN = "Unknown"


class _Sentinel:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


#: wall_line results for degenerate candidate pairs
EVERYWHERE_EQUAL = _Sentinel("EverywhereEqual")
NO_WALL = _Sentinel("NoWall")


@dataclass(frozen=True)
class RationalLine:
    """Line A*b + B*w = C with integer coefficients, gcd 1, and the first
    nonzero of (A, B) positive."""

    A: int
    B: int
    C: int

    def __post_init__(self):
        if self.A == 0 and self.B == 0:
            raise DomainError("a line needs (A, B) != (0, 0)")
        g = gcd(gcd(abs(self.A), abs(self.B)), abs(self.C))
        sign = 1
        first = self.A if self.A != 0 else self.B
        if first < 0:
            sign = -1
        g *= sign
        object.__setattr__(self, "A", self.A // g)
        object.__setattr__(self, "B", self.B // g)
        object.__setattr__(self, "C", self.C // g)

    @classmethod
    def from_fractions(cls, a: Fraction, b: Fraction, c: Fraction):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        lcm = a.denominator
        for x in (b, c):
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        return cls(int(a * lcm), int(b * lcm), int(c * lcm))

    def value_at(self, b: Fraction, w: Fraction) -> Fraction:
        return self.A * b + self.B * w - self.C

    def w_at(self, b: Fraction) -> Fraction:
        if self.B == 0:
            raise DomainError("vertical line has no w(b)")
        return Fraction(self.C - self.A * b, self.B)

    def slope(self):
        """Slope -A/B in the (b, w)-plane; +inf for vertical lines."""
        if self.B == 0:
            return math.inf
        return Fraction(-self.A, self.B)

    def contains(self, p: PlanePoint) -> bool:
        return self.value_at(p.b, p.w) == 0

    def as_tuple(self) -> tuple:
        return (self.A, self.B, self.C)


@dataclass(frozen=True)
class Window:
    """Closed search rectangle [b_min, b_max] x [w_min, w_max]."""

    b_min: Fraction
    b_max: Fraction
    w_min: Fraction
    w_max: Fraction

    def __post_init__(self):
        for name in ("b_min", "b_max", "w_min", "w_max"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (self.b_min < self.b_max and self.w_min < self.w_max):
            raise DomainError(
                f"degenerate window [{self.b_min},{self.b_max}]"
                f"x[{self.w_min},{self.w_max}]"
            )

    def corners(self) -> tuple:
        return (
            (self.b_min, self.w_min),
            (self.b_max, self.w_min),
            (self.b_max, self.w_max),
            (self.b_min, self.w_max),
        )

    def contains(self, p: PlanePoint) -> bool:
        return (
            self.b_min <= p.b <= self.b_max
            and self.w_min <= p.w <= self.w_max
        )


@dataclass(frozen=True)
class SupportForm:
    """Quadratic form Q(r,d,n) = (d - b0*r)^2/delta + r^2*(w0 - delta) - n*r."""

    b0: Fraction
    w0: Fraction
    delta: Fraction

    def __post_init__(self):
        for name in ("b0", "w0", "delta"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.delta <= 0:
            raise DomainError(f"delta must be positive, got {self.delta}")


def support_form_value(v: NumClass, sf: SupportForm) -> Fraction:
    """Evaluate the support form exactly."""
    lin = v.d - sf.b0 * v.r
    return lin * lin / sf.delta + v.r * v.r * (sf.w0 - sf.delta) - v.n * v.r


def delta_certificate(b0, w0, delta, model: BNModel) -> list:
    """Exact per-piece positivity data for q(x) = (x-b0)^2/delta + w0 -
    delta - upper(x).

    Returns a list of rows (x, q(x)) covering every piece endpoint, every
    in-range parabola vertex, and every point override; all values must
    be positive for the certificate to hold.  Raises nothing; the caller
    inspects positivity.
    """
    b0, w0, delta = Fraction(b0), Fraction(w0), Fraction(delta)
    rows = []

    def q_against(x, slope, value, ref):
        # q relative to the affine piece value + slope*(x - ref)
        t = x - b0
        return t * t / delta + w0 - delta - (value + slope * (x - ref))

    for lo, hi, s, val, ref in model.upper.affine_parts():
        pts = []
        if lo is not None:
            pts.append(lo)
        if hi is not None:
            pts.append(hi)
        vertex = b0 + s * delta / 2
        if (lo is None or vertex > lo) and (hi is None or vertex < hi):
            pts.append(vertex)
        for x in pts:
            rows.append((x, q_against(x, s, val, ref)))
    for x, val in model.upper.point_values:
        t = x - b0
        rows.append((x, t * t / delta + w0 - delta - val))
    return rows


def find_delta(b0, w0, model: BNModel) -> Fraction:
    """Largest delta in {(w0 - upper(b0))/2^k : k >= 1} whose parabola
    dominates the upper envelope everywhere, certified exactly.

    The rows are those of `delta_certificate`, decided in integers: with
    delta = head/2^k and every rational on a common denominator, each
    row's sign is that of an integer expression in 2^k.
    """
    b0, w0 = Fraction(b0), Fraction(w0)
    head = w0 - model.upper(b0)
    if head <= 0:
        raise NotAboveEnvelope(
            f"({b0},{w0}) is not above the upper envelope "
            f"(upper({b0}) = {model.upper(b0)})"
        )
    m, parts, knots = model.upper.scaled
    bn, bd = b0.numerator, b0.denominator
    wn, wd = w0.numerator, w0.denominator
    hn, hd = head.numerator, head.denominator
    bm = bn * m
    # A knot (x/m, u/m^2) gives the row t^2/delta + c - delta with
    # t = x/m - b0 and c = w0 - u/m^2; times head*2^k*(m*bd)^2*wd*hd^2
    # that is 4^k*a + 2^k*b - c0 with the integers below.
    ka, kb = wd * hd * hd, hn * hd * bd * bd
    c0 = (hn * m * bd) ** 2 * wd
    wm = wn * m * m
    points = []
    for x, u in knots:
        t = x * bd - bm
        points.append((t * t * ka, (wm - u * wd) * kb))
    # A part (slope s/m, intercept i/m) has its parabola vertex at
    # b0 + s*delta/(2m); the row there is (w0 - part(b0)) - delta*(1 +
    # s^2/(4m^2)).  Both the row's sign and whether the vertex lies
    # strictly inside the part compare an integer times 2^k with another.
    vertices = []
    wmb = wn * m * bd
    for lo, hi, sl, ic in parts:
        vertices.append((
            None if lo is None else (lo * bd - bm) * hd * 2,
            None if hi is None else (hi * bd - bm) * hd * 2,
            sl * hn * bd,
            4 * (wmb - (sl * bn + ic * bd) * wd) * m * hd,
            hn * (4 * m * m + sl * sl) * bd * wd,
        ))

    def certified(k):
        for a, b in points:
            if (a << 2 * k) + (b << k) <= c0:
                return False
        for lo, hi, at, qa, qb in vertices:
            inside = ((lo is None or (lo << k) < at)
                      and (hi is None or at < (hi << k)))
            if inside and (qa << k) <= qb:
                return False
        return True

    for k in range(1, 257):
        if certified(k):
            return Fraction(hn, hd << k)
    raise DomainError(
        f"no validating delta found below {head} at ({b0},{w0})"
    )  # pragma: no cover - the parabola always wins for small delta


def wall_line(v: NumClass, v_sub: NumClass):
    """Locus where the slice slopes of v and v_sub agree.

    Cross-multiplying the slope equality gives A*b + B*w = C with
    A = n*r' - n'*r, B = r*d' - r'*d, C = n*d' - n'*d.  Returns
    EVERYWHERE_EQUAL for proportional classes (A = B = C = 0) and
    NO_WALL when the slopes are distinct constants (A = B = 0, C != 0).
    """
    a = v.n * v_sub.r - v_sub.n * v.r
    b = v.r * v_sub.d - v_sub.r * v.d
    c = v.n * v_sub.d - v_sub.n * v.d
    if a == 0 and b == 0:
        return EVERYWHERE_EQUAL if c == 0 else NO_WALL
    return RationalLine(a, b, c)


def ray_line(v: NumClass, alpha) -> RationalLine:
    """Line of slope -1/alpha through the projection of v."""
    if v.r == 0:
        raise ZeroRank(f"ray needs a nonzero-rank class, got {v}")
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ZeroAlpha("ray slope parameter alpha must be nonzero")
    beta, eta = project(v)
    # w = -(b - beta)/alpha + eta  <=>  b + alpha*w = beta + alpha*eta
    return RationalLine.from_fractions(
        Fraction(1), alpha, beta + alpha * eta
    )


@dataclass(frozen=True)
class Wall:
    """One wall of `owner`: its line, slope value, destabilizer witnesses,
    clipped segment, and named check verdicts."""

    owner: NumClass
    destabilizers: Tuple[NumClass, ...]
    line: RationalLine
    nu_value: object  # Fraction or math.inf
    segment: Tuple[PlanePoint, PlanePoint]
    verdicts: Tuple[Tuple[str, Check], ...]

    def verdict(self, name: str) -> Check:
        return dict(self.verdicts)[name]


def _sort_key(wall: Wall):
    inf = wall.nu_value == math.inf
    nu_key = Fraction(0) if inf else wall.nu_value
    return (inf, nu_key, wall.line.A, wall.line.B, wall.line.C)


# ---------------------------------------------------------------------------
# interval helpers (closed rational intervals, None = unbounded side)


def _solve_linear(a: Fraction, c: Fraction, strict: bool) -> tuple:
    """{x : a*x + c > 0} (strict) or {x : a*x + c >= 0} as (lo, hi,
    empty) with None for an open side.  The boundary root is kept either
    way (callers treat returned intervals as closed), so strictness only
    decides the constant case a == 0."""
    if a == 0:
        holds = c > 0 if strict else c >= 0
        return (None, None, not holds)
    root = -c / a
    if a > 0:
        return (root, None, False)
    return (None, root, False)


def _intersect(lo1, hi1, lo2, hi2) -> tuple:
    lo = lo1 if lo2 is None else (lo2 if lo1 is None else max(lo1, lo2))
    hi = hi1 if hi2 is None else (hi2 if hi1 is None else min(hi1, hi2))
    return lo, hi


def _affine_above_pl(slope, value, ref, pl, lo: Fraction, hi: Fraction):
    """Closures of {x in [lo, hi] : slope*(x-ref)+value > pl(x)} as a list
    of closed intervals, point-override holes removed."""
    out = []
    for plo, phi, s, v, pref in pl.affine_parts():
        a = max(lo, plo) if plo is not None else lo
        b = min(hi, phi) if phi is not None else hi
        if a > b:
            continue
        # difference (slope - s)*x + const > 0 on [a, b]
        ca = slope - s
        cc = (value - slope * ref) - (v - s * pref)
        slo, shi, empty = _solve_linear(ca, cc, strict=True)
        if empty:
            continue
        ilo, ihi = _intersect(a, b, slo, shi)
        if ilo < ihi:
            out.append([ilo, ihi])
    out.sort()
    merged = []
    for seg in out:
        if merged and seg[0] <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], seg[1])
        else:
            merged.append(seg)
    # carve out override points where the affine fails to clear the spike
    final = []
    for a, b in merged:
        cuts = [a]
        holes = []
        for x, vo in pl.point_values:
            if a < x < b and value + slope * (x - ref) <= vo:
                holes.append(x)
        pieces = []
        start = a
        for h in sorted(holes):
            pieces.append((start, h))
            start = h
        pieces.append((start, b))
        final.extend((p, q) for p, q in pieces if p < q)
    return [(a, b) for a, b in final]


def _interval_hull(intervals) -> Optional[tuple]:
    if not intervals:
        return None
    return (min(a for a, _ in intervals), max(b for _, b in intervals))


# ---------------------------------------------------------------------------
# wall enumeration


def _im_interval(v: NumClass, v_sub: NumClass, window: Window):
    """Open b-interval where Im Z(v_sub) > 0 and Im Z(v - v_sub) > 0,
    clipped to the window's b-range; None when empty."""
    lo1, hi1, e1 = _solve_linear(
        Fraction(-v_sub.r), Fraction(v_sub.d), strict=True
    )
    lo2, hi2, e2 = _solve_linear(
        Fraction(v_sub.r - v.r), Fraction(v.d - v_sub.d), strict=True
    )
    if e1 or e2:
        return None
    lo, hi = _intersect(lo1, hi1, lo2, hi2)
    lo = window.b_min if lo is None else max(lo, window.b_min)
    hi = window.b_max if hi is None else min(hi, window.b_max)
    if lo >= hi:
        return None
    return (lo, hi)


def _slope_range(gl: Fraction, gh: Fraction, beta: Fraction, eta: Fraction,
                 window: Window):
    """Range of slopes of lines through (beta, eta) meeting the closed box
    [gl, gh] x [w_min, w_max], assuming beta is outside [gl, gh]."""
    slopes = []
    for b in (gl, gh):
        for w in (window.w_min, window.w_max):
            slopes.append((w - eta) / (b - beta))
    return min(slopes), max(slopes)


def _int_range(x: Fraction, y: Fraction):
    lo, hi = (x, y) if x <= y else (y, x)
    return range(ceil(lo), floor(hi) + 1)


def _candidate_triples(v: NumClass, window: Window, rank_bound: int):
    """Yield (candidate, Im interval) for the destabilizer classes with
    |r'| <= rank_bound that can carry a genuine wall segment inside the
    window box (a finite, complete superset; exact clipping happens
    downstream).  The Im interval is `_im_interval` of the candidate."""
    r, d, n = v.r, v.d, v.n
    if v.r != 0:
        beta, eta = project(v)
        # relaxed generation: exists b in window with
        # 0 <= d' - b*r' <= d - b*r
        flo, fhi, empty = _solve_linear(Fraction(-r), Fraction(d),
                                        strict=True)
        if empty:
            return
        flo = window.b_min if flo is None else max(flo, window.b_min)
        fhi = window.b_max if fhi is None else min(fhi, window.b_max)
        if flo > fhi:
            return
        for rp in range(-rank_bound, rank_bound + 1):
            dlo = min(flo * rp, fhi * rp)
            dhi = max(d + flo * (rp - r), d + fhi * (rp - r))
            for dp in _int_range(dlo, dhi):
                if rp == 0 and dp < 1:
                    continue
                if r * dp - rp * d == 0:
                    # the line would be vertical through the projection,
                    # where Im Z(v') vanishes: never genuine
                    continue
                gi = _im_interval(v, NumClass(rp, dp, 0), window)
                if gi is None:
                    continue
                gl, gh = gi
                slo, shi = _slope_range(gl, gh, beta, eta, window)
                bb = Fraction(r * dp - rp * d)
                # slope = (n'*r - n*r')/B  =>  n' = (slope*B + n*r')/r
                n_from = (slo * bb + n * rp) / r
                n_to = (shi * bb + n * rp) / r
                for np_ in _int_range(n_from, n_to):
                    if rp == 0 and gcd(dp, abs(np_)) != 1:
                        continue
                    yield NumClass(rp, dp, np_), gi
    else:
        if d == 0:
            return
        for rp in range(-rank_bound, rank_bound + 1):
            if rp == 0:
                continue
            dlo = min(window.b_min * rp, window.b_max * rp)
            dhi = max(d + window.b_min * rp, d + window.b_max * rp)
            for dp in _int_range(dlo, dhi):
                gi = _im_interval(v, NumClass(rp, dp, 0), window)
                if gi is None:
                    continue
                gl, gh = gi
                # line n*r'*b - r'*d*w = n*d' - n'*d ; the functional
                # A*b + B*w over the genuine box bounds C, hence n'
                aa, bb = Fraction(n * rp), Fraction(-rp * d)
                vals = [
                    aa * b + bb * w
                    for b in (gl, gh)
                    for w in (window.w_min, window.w_max)
                ]
                # C = n*d' - n'*d  =>  n' = (n*d' - C)/d
                n_from = (n * dp - min(vals)) / d
                n_to = (n * dp - max(vals)) / d
                for np_ in _int_range(n_from, n_to):
                    yield NumClass(rp, dp, np_), gi


def _segment_meets_uf(slope, value, ref, intervals, g: int) -> bool:
    """Does the affine w(b) lie strictly above the Mercat bound with b > 0
    somewhere inside the given closed b-intervals?"""
    b1, b2, b3 = (2 + Fraction(2, g - 2), 2 * g - 4 - Fraction(2, g - 2),
                  Fraction(3 * g - 3))
    inv_g = Fraction(1, g)
    pieces = (
        (Fraction(0), b1, inv_g, 1 - inv_g, Fraction(0)),
        (b1, b2, Fraction(1, 2), b1 / 2, b1),
        (b2, b3, 1 - inv_g, b2 / 2, b2),
        (b3, None, Fraction(1), Fraction(2 * g - 2), b3),
    )
    for lo, hi in intervals:
        for plo, phi, s, pv, pref in pieces:
            a = max(lo, plo)
            b = min(hi, phi) if phi is not None else hi
            if a > b:
                continue
            diff_a = value + slope * (a - ref) - (pv + s * (a - pref))
            diff_b = value + slope * (b - ref) - (pv + s * (b - pref))
            # the affine difference is positive somewhere on [a, b], and
            # continuity pushes the witness into {b > 0}
            if b > 0 and max(diff_a, diff_b) > 0:
                return True
    return False


def _negative_q(b0: Fraction, w0: Fraction, delta: Fraction):
    """Predicate v -> support_form_value(v, SupportForm(b0, w0, delta)) < 0,
    decided in integers: delta*Q(v) times bd^2*wd*ed^2 > 0 is
    (d*bd - bn*r)^2*wd*ed^2 + r*(r*kb - n*kc) with kb, kc below."""
    bn, bd = b0.numerator, b0.denominator
    wn, wd = w0.numerator, w0.denominator
    en, ed = delta.numerator, delta.denominator
    ka = wd * ed * ed
    kb = en * (wn * ed - en * wd) * bd * bd
    kc = en * ed * bd * bd * wd

    def negative(v: NumClass) -> bool:
        lin = v.d * bd - bn * v.r
        return lin * lin * ka + v.r * (v.r * kb - v.n * kc) < 0

    return negative


def _clip_to_window(slope: Fraction, w_ref: Fraction, window: Window):
    """Closed b-range where w_ref + slope*b stays inside the window box;
    None when empty."""
    blo, bhi = window.b_min, window.b_max
    for a, c in ((slope, w_ref - window.w_min),
                 (-slope, window.w_max - w_ref)):
        lo, hi, empty = _solve_linear(a, c, strict=False)
        if empty:
            return None
        blo, bhi = _intersect(blo, bhi, lo, hi)
    if blo > bhi:
        return None
    return blo, bhi


def enumerate_walls(v: NumClass, g: GenusLike, window: Window,
                    rank_bound: int, model: BNModel) -> List[Wall]:
    """All candidate walls of v with destabilizer rank within rank_bound,
    clipped to the window above the model's lower envelope.

    rank_bound = 0 searches nothing and returns [].  Walls are
    deduplicated by line (complementary witnesses merge), pruned by the
    support form where the segment midpoint is certified above the upper
    envelope, and sorted by (slope value with +inf last, line coeffs).
    """
    gg = genus_value(g)
    if model.genus.g != gg:
        raise DomainError(
            f"model genus {model.genus.g} differs from requested {gg}"
        )
    if rank_bound < 0:
        raise DomainError(f"rank_bound must be >= 0, got {rank_bound}")
    if rank_bound == 0:
        return []

    deltas: Dict[tuple, Fraction] = {}

    def delta_at(b0, w0):
        key = (b0, w0)
        if key not in deltas:
            deltas[key] = find_delta(b0, w0, model)
        return deltas[key]

    # Bucket the candidates by line, then by Im interval: the window clip
    # and the carve depend on the line alone, the segment and its support
    # form on the interval too (complementary witnesses share both).
    by_line: Dict[tuple, tuple] = {}
    for cand, gi in _candidate_triples(v, window, rank_bound):
        line = wall_line(v, cand)
        if line is EVERYWHERE_EQUAL or line is NO_WALL:
            continue
        if line.B == 0:
            continue  # vertical lines never carry genuine segments
        key = line.as_tuple()
        if key not in by_line:
            by_line[key] = (line, {})
        by_line[key][1].setdefault(gi, []).append(cand)

    walls = []
    for line, groups in by_line.values():
        wall = _line_wall(v, gg, line, groups, window, model, delta_at)
        if wall is not None:
            walls.append(wall)
    walls.sort(key=_sort_key)
    return walls


def _line_wall(v: NumClass, gg: int, line: RationalLine, groups: dict,
               window: Window, model: BNModel, delta_at) -> Optional[Wall]:
    """The wall that `line` carries for its candidates, grouped by Im
    interval, or None when every candidate is rejected."""
    slope = Fraction(-line.A, line.B)
    w_ref = Fraction(line.C, line.B)
    clipped = _clip_to_window(slope, w_ref, window)
    if clipped is None:
        return None
    # above the lower envelope, then inside each genuine interval
    carved = _affine_above_pl(slope, w_ref, Fraction(0), model.lower,
                              *clipped)
    if not carved:
        return None
    witnesses, intervals, q_checks, feas_checks = set(), [], set(), set()
    for (gl, gh), cands in groups.items():
        parts = [
            (max(a, gl), min(b, gh))
            for a, b in carved
            if max(a, gl) < min(b, gh)
        ]
        if not parts:
            continue
        hull = _interval_hull(parts)
        mid_b = (hull[0] + hull[1]) / 2
        mid_w = line.w_at(mid_b)
        q_check = Check.UNKNOWN
        if mid_w > model.upper(mid_b):
            negative = _negative_q(mid_b, mid_w, delta_at(mid_b, mid_w))
            if negative(v):
                continue
            cands = [c for c in cands if not (negative(c) or negative(v - c))]
            if not cands:
                continue
            q_check = Check.PASS
        meets_uf = None
        for cand in cands:
            feas = Check.UNKNOWN
            if cand.r != 0 and gg >= 4:
                if meets_uf is None:
                    meets_uf = _segment_meets_uf(slope, w_ref, Fraction(0),
                                                 parts, gg)
                if meets_uf:
                    feas = (
                        Check.FAIL
                        if region_uf(project(cand), gg)
                        else Check.PASS
                    )
            feas_checks.add(feas)
        witnesses.update(cands)
        intervals.extend(parts)
        q_checks.add(q_check)
    if not witnesses:
        return None

    hull = _interval_hull(intervals)
    p0 = PlanePoint(hull[0], line.w_at(hull[0]))
    p1 = PlanePoint(hull[1], line.w_at(hull[1]))
    q_verdict = Check.PASS if Check.PASS in q_checks else Check.UNKNOWN
    if Check.FAIL in feas_checks:
        feas_verdict = Check.FAIL
    elif Check.PASS in feas_checks:
        feas_verdict = Check.PASS
    else:
        feas_verdict = Check.UNKNOWN
    return Wall(
        owner=v,
        destabilizers=tuple(sorted(witnesses, key=NumClass.as_tuple)),
        line=line,
        nu_value=line.slope(),
        segment=(p0, p1),
        verdicts=(
            ("im_positive", Check.PASS),
            ("q_nonneg", q_verdict),
            ("feasibility", feas_verdict),
            ("region", _segment_region_verdict(line, hull, model)),
        ),
    )


def _segment_region_verdict(line: RationalLine, hull, model: BNModel) -> Check:
    """Pass when the open segment is certified above the upper envelope."""
    lo, hi = hull
    slope = Fraction(-line.A, line.B)
    ref_w = line.w_at(lo)
    probes = [lo, hi, (lo + hi) / 2]
    for x in model.upper.breakpoints:
        if lo < x < hi:
            probes.append(x)
    for x, _ in model.upper.point_values:
        if lo < x < hi:
            probes.append(x)
    ok = True
    for x in probes:
        w = ref_w + slope * (x - lo)
        diff = w - model.upper(x)
        if diff < 0 or (diff == 0 and lo < x < hi):
            ok = False
            break
    return Check.PASS if ok else Check.UNKNOWN


# ---------------------------------------------------------------------------
# chamber decomposition


@dataclass(frozen=True)
class Chamber:
    """One connected piece of the wall complement, with a sample point."""

    index: int
    kind: str  # "window" | "sector" | "strip"
    bounds: tuple
    meets_window: bool
    sample: PlanePoint
    region: Optional[RegionVerdict]


@dataclass(frozen=True)
class ChamberReport:
    owner: NumClass
    kind: str  # "pencil" | "strips" | "window"
    center: Optional[PlanePoint]
    chambers: Tuple[Chamber, ...]


def _clip_polygon(poly, normal, offset):
    """Keep the part of a convex polygon with normal . p >= offset."""
    out = []
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        fp = normal[0] * p[0] + normal[1] * p[1] - offset
        fq = normal[0] * q[0] + normal[1] * q[1] - offset
        if fp >= 0:
            out.append(p)
        if (fp > 0 > fq) or (fp < 0 < fq):
            t = fp / (fp - fq)
            out.append(
                (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            )
    return out


def _polygon_area2(poly) -> Fraction:
    s = Fraction(0)
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        s += x0 * y1 - x1 * y0
    return s


def _ray_sort_key(d):
    """Counterclockwise order from the positive b-axis, exactly."""
    dx, dy = d
    upper = 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1
    # within either half-plane, angle increases as -dx/dy increases; the
    # boundary rays (dy == 0) open their half-plane
    return (upper, dy != 0, Fraction(-dx, dy) if dy != 0 else 0)


def _primitive(dx: int, dy: int) -> tuple:
    g = gcd(abs(dx), abs(dy))
    return (dx // g, dy // g)


def chamber_decomposition(v: NumClass, walls: Sequence[Wall],
                          window: Window,
                          model: Optional[BNModel] = None) -> ChamberReport:
    """Chambers cut out by the given walls of v.

    Nonzero rank: the angular sectors around the projection of v in
    circular order; rank zero: parallel strips ordered by intercept.
    Each chamber carries a rational sample point, whether it meets the
    window, and (when a model is supplied) the region verdict at the
    sample.
    """
    for wall in walls:
        if wall.owner != v:
            raise MixedOwnership(
                f"wall of {wall.owner} passed to a decomposition for {v}"
            )

    def verdict_at(p: PlanePoint):
        return region_uc(p.as_tuple(), model) if model is not None else None

    lines = []
    for wall in walls:
        if wall.line not in lines:
            lines.append(wall.line)

    if not lines:
        center = (
            PlanePoint(*project(v)) if v.r != 0 else None
        )
        sample = PlanePoint(
            (window.b_min + window.b_max) / 2,
            (window.w_min + window.w_max) / 2,
        )
        chamber = Chamber(0, "window", (), True, sample, verdict_at(sample))
        return ChamberReport(v, "window", center, (chamber,))

    if v.r != 0:
        beta, eta = project(v)
        center = PlanePoint(beta, eta)
        rays = []
        for line in lines:
            d = _primitive(line.B, -line.A)
            rays.append(d)
            rays.append((-d[0], -d[1]))
        rays.sort(key=_ray_sort_key)
        corners = [(b, w) for b, w in window.corners()]
        chambers = []
        k = len(rays)
        for i in range(k):
            u = rays[i]
            u2 = rays[(i + 1) % k]
            if k == 2:
                # one line: each sector is the half-plane on the left of
                # its opening ray
                interior = (-u[1], u[0])
                clip_planes = [(interior, Fraction(0))]
            else:
                interior = (u[0] + u2[0], u[1] + u2[1])
                # wedge = {p : cross(u, p-c) > 0 and cross(p-c, u2) > 0}
                clip_planes = [
                    ((-u[1], u[0]), Fraction(0)),
                    ((u2[1], -u2[0]), Fraction(0)),
                ]
            poly = corners
            for normal, off in clip_planes:
                offset = normal[0] * beta + normal[1] * eta + off
                poly = _clip_polygon(poly, normal, offset)
                if not poly:
                    break
            meets = bool(poly) and _polygon_area2(poly) != 0
            if meets:
                sx = sum(p[0] for p in poly) / len(poly)
                sy = sum(p[1] for p in poly) / len(poly)
                sample = PlanePoint(sx, sy)
            else:
                sample = PlanePoint(beta + interior[0], eta + interior[1])
            chambers.append(
                Chamber(i, "sector", (u, u2), meets, sample,
                        verdict_at(sample))
            )
        return ChamberReport(v, "pencil", center, tuple(chambers))

    # rank zero: parallel strips
    a0, b0 = lines[0].A, lines[0].B
    prim = _primitive(a0, b0)
    intercepts = []
    for line in lines:
        scale = (
            Fraction(line.A, prim[0]) if prim[0] != 0
            else Fraction(line.B, prim[1])
        )
        if (line.A, line.B) != (prim[0] * scale, prim[1] * scale):
            raise MixedOwnership(
                f"line {line.as_tuple()} is not parallel to the family"
            )
        intercepts.append(Fraction(line.C, scale))
    intercepts = sorted(set(intercepts))
    corner_vals = [
        (prim[0] * b + prim[1] * w, (b, w)) for b, w in window.corners()
    ]
    l_min, c_min = min(corner_vals)
    l_max, c_max = max(corner_vals)
    bounds_seq = [None] + intercepts + [None]
    chambers = []
    for i in range(len(intercepts) + 1):
        t_lo, t_hi = bounds_seq[i], bounds_seq[i + 1]
        o_lo = l_min if t_lo is None else max(t_lo, l_min)
        o_hi = l_max if t_hi is None else min(t_hi, l_max)
        meets = o_lo < o_hi
        if meets:
            t_star = (o_lo + o_hi) / 2
            lam = (t_star - l_min) / (l_max - l_min)
            sample = PlanePoint(
                c_min[0] + lam * (c_max[0] - c_min[0]),
                c_min[1] + lam * (c_max[1] - c_min[1]),
            )
        else:
            t_star = (
                intercepts[0] - 1 if t_lo is None
                else (intercepts[-1] + 1 if t_hi is None
                      else (t_lo + t_hi) / 2)
            )
            norm2 = Fraction(prim[0] ** 2 + prim[1] ** 2)
            cb = (window.b_min + window.b_max) / 2
            cw = (window.w_min + window.w_max) / 2
            mu = (t_star - (prim[0] * cb + prim[1] * cw)) / norm2
            sample = PlanePoint(cb + mu * prim[0], cw + mu * prim[1])
        chambers.append(
            Chamber(i, "strip", (t_lo, t_hi), meets, sample,
                    verdict_at(sample))
        )
    return ChamberReport(v, "strips", None, tuple(chambers))


class BogomolovVerdict(str, Enum):
    EXCLUDED = "Excluded"
    NOT_EXCLUDED = "NotExcluded"
    INAPPLICABLE = "Inapplicable"


def bogomolov_verdict(v: NumClass, g: GenusLike) -> BogomolovVerdict:
    """Feasibility of v against the convex region above the Mercat bound.

    Excluded means the projection of v lands in that region, so no object
    of class v is slice-semistable at any of its points and no
    alpha-semistable object of class v exists.  Rank zero or g <= 3 give
    Inapplicable.
    """
    gg = genus_value(g)
    if v.r == 0 or gg <= 3:
        return BogomolovVerdict.INAPPLICABLE
    if region_uf(project(v), gg):
        return BogomolovVerdict.EXCLUDED
    return BogomolovVerdict.NOT_EXCLUDED
