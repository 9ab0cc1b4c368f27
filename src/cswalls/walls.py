"""Wall-and-chamber geometry for a fixed lattice class in the (b, w)-slice.

For a fixed class v, a wall is the locus where some candidate class has
the same slice slope as v: always a rational line, through the projection
of v when v has nonzero rank.  This module computes wall lines, prunes
candidates with the quadratic support form, clips against a window and an
envelope model, decomposes the surviving complement into chambers, and
issues Bogomolov-type feasibility verdicts.  Everything is exact.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .charges import PlanePoint
from .envelopes import (
    BNModel,
    PLFunction,
    RegionVerdict,
    _frac,
    mercat_bound_pl,
    region_at,
    region_uf_at,
)
from .errors import (
    DomainError,
    MixedOwnership,
    NotAboveEnvelope,
    ZeroAlpha,
    ZeroRank,
)
from .lattice import GenusLike, NumClass, genus_value


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
class Window:
    """Closed search rectangle [b_min, b_max] x [w_min, w_max]."""

    b_min: Fraction
    b_max: Fraction
    w_min: Fraction
    w_max: Fraction

    def __post_init__(self):
        for name in ("b_min", "b_max", "w_min", "w_max"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if not (self.b_min < self.b_max and self.w_min < self.w_max):
            raise DomainError(
                f"degenerate window [{self.b_min},{self.b_max}]"
                f"x[{self.w_min},{self.w_max}]"
            )

    def contains(self, p: PlanePoint) -> bool:
        return (
            self.b_min <= p.b <= self.b_max
            and self.w_min <= p.w <= self.w_max
        )


def support_form_value(v: NumClass, b0, w0, delta) -> Fraction:
    """The quadratic form Q(r,d,n) = (d - b0*r)^2/delta + r^2*(w0 - delta)
    - n*r at v, exactly; delta must be positive."""
    b0, w0, delta = _frac(b0), _frac(w0), _frac(delta)
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    lin = v.d - b0 * v.r
    return lin * lin / delta + v.r * v.r * (w0 - delta) - v.n * v.r


def delta_certificate(b0, w0, delta, model: BNModel) -> list:
    """Exact per-piece positivity data for q(x) = (x-b0)^2/delta + w0 -
    delta - upper(x).

    Returns a list of rows (x, q(x)) covering every piece endpoint, every
    in-range parabola vertex, and every point override; all values must
    be positive for the certificate to hold.  Raises nothing; the caller
    inspects positivity.
    """
    b0, w0, delta = _frac(b0), _frac(w0), _frac(delta)
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
    dominates the upper envelope everywhere, certified exactly on the
    rows that `_delta` picks for b0 (the others are positive at every
    such delta).

    Raises NotAboveEnvelope unless w0 lies strictly above upper(b0) and
    above both one-sided limits of upper at b0 (a jump there leaves no
    certifiable delta).
    """
    b0, w0 = _frac(b0), _frac(w0)
    found = _delta(model.upper, b0.numerator, b0.denominator,
                   w0.numerator, w0.denominator)
    if found is None:
        raise NotAboveEnvelope(
            f"({b0},{w0}) is not above the upper envelope and its "
            f"one-sided limits there (upper({b0}) = {model.upper(b0)})"
        )
    return Fraction(*found)


def _delta(upper: PLFunction, bn: int, bd: int, wn: int, wd: int):
    """`find_delta` in integers: delta as (en, ed) for b0 = bn/bd and w0 =
    wn/wd (bd, wd > 0), or None unless w0 lies strictly above upper(b0)
    and above both one-sided limits of upper at b0 (without the limits no
    parabola through (b0, w0 - delta) can clear upper near b0).

    With head = w0 - upper(b0), delta = head/2^k for the first certifying
    k >= 1, tested on the rows of `delta_certificate` that can fail: those
    of the part holding b0 in `PLFunction.certificate_rows`, its index
    given by `PLFunction.at`, or every row where upper(b0) is a point
    override below that part (the part's rows assume upper(b0) at or
    above it).  No row gives head/2 at once.  Each row's sign is that of
    an integer expression in 2^k, every rational on a common denominator.
    """
    m = upper.scaled[0]
    value, left, right, j = upper.at(bn, bd)
    every, table = upper.certificate_rows
    rows = every if value < right else table[j]
    den = m * bd
    wden = wn * den
    if wden <= max(value, left, right) * wd:
        return None
    hn, hd = _reduced(wden - value * wd, den * wd)
    if not rows:
        return hn, hd << 1
    knots, parts = rows
    # A knot (x/m, u/m^2) gives the row t^2/delta + c - delta with
    # t = x/m - b0 and c = w0 - u/m^2; times head*2^k*(m*bd)^2*wd*hd^2
    # that is 4^k*a + 2^k*b - c0 with a = t'^2*ka, b = (wm - u*wd)*kb and
    # t' = x*bd - bm.
    ka, kb = wd * hd * hd, hn * hd * bd * bd
    c0 = (hn * m * bd) ** 2 * wd
    wm, bm = wn * m * m, bn * m
    # A part (slope s/m, intercept i/m) has its parabola vertex at
    # b0 + s*delta/(2m); the row there is (w0 - part(b0)) - delta*(1 +
    # s^2/(4m^2)).  Both the row's sign and whether the vertex lies
    # strictly inside the part compare an integer times 2^k with another.
    wmb, hbd, qd = wn * m * bd, hn * bd, hn * bd * wd

    def certified(k):
        # each row is derived as it is tested: most calls certify at
        # k = 1, and a failing k stops at its first nonpositive row
        for x, u in knots:
            t = x * bd - bm
            if (t * t * ka << 2 * k) + ((wm - u * wd) * kb << k) <= c0:
                return False
        for lo, hi, sl, ic in parts:
            at = sl * hbd
            if ((lo is None or (lo * bd - bm) * hd << k + 1 < at)
                    and (hi is None or at < (hi * bd - bm) * hd << k + 1)
                    and ((wmb - (sl * bn + ic * bd) * wd) * m * hd << k + 2
                         <= (4 * m * m + sl * sl) * qd)):
                return False
        return True

    # The parabola rises pointwise as k grows, so certification is monotone
    # in k: gallop to a certified k, then bisect for the first one.  Some
    # k certifies because head > 0 clears upper and its limits at b0.
    lo, hi = 0, 1
    while not certified(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hn, hd << hi


def wall_line(v: NumClass, v_sub: NumClass):
    """Locus where the slice slopes of v and v_sub agree.

    Cross-multiplying the slope equality gives A*b + B*w = C with
    A = n*r' - n'*r, B = r*d' - r'*d, C = n*d' - n'*d, returned as the
    `_normal` triple (A, B, C) that wall records carry.  Returns
    EVERYWHERE_EQUAL for proportional classes (A = B = C = 0) and
    NO_WALL when the slopes are distinct constants (A = B = 0, C != 0).
    """
    a = v.n * v_sub.r - v_sub.n * v.r
    b = v.r * v_sub.d - v_sub.r * v.d
    c = v.n * v_sub.d - v_sub.n * v.d
    if a == 0 and b == 0:
        return EVERYWHERE_EQUAL if c == 0 else NO_WALL
    return _normal(a, b, c)


def ray_line(v: NumClass, alpha) -> tuple:
    """Line of slope -1/alpha through the projection of v, as (A, B, C)."""
    if v.r == 0:
        raise ZeroRank(f"ray needs a nonzero-rank class, got {v}")
    alpha = _frac(alpha)
    if alpha == 0:
        raise ZeroAlpha("ray slope parameter alpha must be nonzero")
    p, q = alpha.numerator, alpha.denominator
    # w = -(b - d/r)/alpha + n/r  <=>  b + alpha*w = d/r + alpha*n/r;
    # times q*r with alpha = p/q
    return _normal(q * v.r, p * v.r, q * v.d + p * v.n)


@dataclass(frozen=True)
class Wall:
    """One wall of `owner`: its line, slope value, destabilizer witnesses,
    clipped segment, and named check verdicts, as `jsonio.walls_from_json`
    decodes them from a wall record."""

    owner: NumClass
    destabilizers: Tuple[NumClass, ...]
    line: tuple  # (A, B, C), as `_normal` writes it
    nu_value: object  # Fraction or math.inf
    segment: Tuple[PlanePoint, PlanePoint]
    verdicts: Tuple[Tuple[str, Check], ...]

    def verdict(self, name: str) -> Check:
        return dict(self.verdicts)[name]


# ---------------------------------------------------------------------------
# wall enumeration in integers: a b-value is a pair (num, den) with den > 0,
# pairs compare by cross-multiplication, and a line is its (A, B, C) tuple


def _reduced(num: int, den: int) -> tuple:
    """num/den (den != 0) as the pair of the equal Fraction."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _ratio_texts(*pairs) -> list:
    """Each (num, den) of `pairs` (den > 0) as `str(Fraction(num, den))`
    writes it: "p", or "p/q" with q > 1 and gcd 1; one gcd each."""
    texts = []
    for num, den in pairs:
        g = gcd(num, den)
        texts.append(str(num // g) if den == g else f"{num // g}/{den // g}")
    return texts


def ratio_text(num: int, den: int) -> str:
    """num/den (den != 0) as `str(Fraction(num, den))` writes it."""
    return _ratio_texts((num, den) if den > 0 else (-num, -den))[0]


def _normal(a: int, b: int, c: int) -> tuple:
    """(a, b, c) over its gcd, with the first nonzero of (a, b) positive."""
    g = gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return a // g, b // g, c // g


def _cut(lo: tuple, hi: tuple, a: int, c: int) -> tuple:
    """The pair interval [lo, hi] cut to a*b + c >= 0, for a != 0."""
    if a > 0:
        if -c * lo[1] > lo[0] * a:
            lo = (-c, a)
    elif c * hi[1] < hi[0] * -a:
        hi = (c, -a)
    return lo, hi


def _candidates(v: NumClass, box: tuple, rank_bound: int):
    """Yield ((r', d', n'), Im interval) for the destabilizer classes with
    |r'| <= rank_bound that can carry a genuine wall segment inside the
    window box, given by `_box` (a finite, complete superset; exact
    clipping happens downstream).  The Im interval is the open b-range
    where Im Z(v') > 0 and Im Z(v - v') > 0, clipped to the window, as a
    pair of reduced pairs; candidates whose interval is empty are
    skipped, and so are those with r*d' - r'*d = 0, whose wall line would
    be vertical."""
    r, d, n = v.r, v.d, v.n
    blo, bhi, *ws = box
    # relaxed generation: some b in [flo, fhi] has 0 <= d' - b*r' <= d - b*r
    if r == 0 and d == 0:
        return
    (ln, ld), (hn, hd) = _cut(blo, bhi, -r, d) if r else (blo, bhi)
    if ln * hd > hn * ld:
        return
    for rp in range(-rank_bound, rank_bound + 1):
        # d' from the extremes of b*r' and d + b*(r' - r) at b = flo, fhi,
        # in either order
        p1, p2 = ln * rp, hn * rp
        p3, p4 = d * ld + ln * (rp - r), d * hd + hn * (rp - r)
        dp_from = min(min(-(-p1 // ld), -(-p2 // hd)),
                      max(-(-p3 // ld), -(-p4 // hd)))
        dp_to = max(min(p1 // ld, p2 // hd), max(p3 // ld, p4 // hd))
        for dp in range(dp_from, dp_to + 1):
            if rp == 0 and dp < 1:
                continue
            bb = r * dp - rp * d
            if bb == 0:
                # the line would be vertical through the projection, where
                # Im Z(v') vanishes (or r = r' = 0: no line): never genuine
                continue
            # Im Z(v') = d' - b*r' and Im Z(v - v') = (d - d') - b*(r - r'),
            # each c - a*b > 0
            lo, hi = blo, bhi
            for a, c in ((rp, dp), (r - rp, d - dp)):
                if a:
                    lo, hi = _cut(lo, hi, -a, c)
                elif c <= 0:
                    lo = hi
            if lo[0] * hi[1] >= hi[0] * lo[1]:
                continue
            gi = (_reduced(*lo), _reduced(*hi))
            # n' = (n*(d' - r'*b) - B*w)/(d - r*b) puts (b, w) on the wall
            # line.  It is affine in the line's one free parameter (its
            # slope through the projection, or its intercept at r = 0), so
            # its range over the box [Im interval] x [w_min, w_max] is
            # spanned by the four corners (d - r*b != 0 there)
            corners = []
            for bn, bd in gi:
                p, q, e = n * (dp * bd - rp * bn), bb * bd, d * bd - r * bn
                for wn, wd in ws:
                    num, den = p * wd - q * wn, e * wd
                    corners.append((num, den) if den > 0 else (-num, -den))
            np_from = min(-(-num // den) for num, den in corners)
            np_to = max(num // den for num, den in corners)
            for np_ in range(np_from, np_to + 1):
                if rp == 0 and gcd(dp, np_) != 1:
                    continue
                yield (rp, dp, np_), gi


def _q_nonnegative(owner: tuple, cands: list, bn, bd, wn, wd, en, ed):
    """The candidates c of `cands` at which neither Q(c) nor Q(v - c) is
    negative, Q being support_form_value at (b0, w0, delta) with
    b0 = bn/bd, w0 = wn/wd and delta = en/ed (positive denominators)
    and v = owner; None when Q(v) < 0.  In integers: delta*Q(r,d,n) times
    bd^2*wd*ed^2 is (d*bd - bn*r)^2*ka + r*(r*kb - n*kc) with ka, kb, kc
    below, and the linear term of v - c is that of v minus that of c."""
    ka = wd * ed * ed
    kb = en * (wn * ed - en * wd) * bd * bd
    kc = en * ed * bd * bd * wd
    r, d, n = owner
    lin = d * bd - bn * r
    if lin * lin * ka + r * (r * kb - n * kc) < 0:
        return None
    kept = []
    for c in cands:
        cr, cd, cn = c
        cl = cd * bd - bn * cr
        el, er = lin - cl, r - cr
        if (cl * cl * ka + cr * (cr * kb - cn * kc) >= 0
                and el * el * ka + er * (er * kb - (n - cn) * kc) >= 0):
            kept.append(c)
    return kept


def enumerate_walls(v: NumClass, g: GenusLike, window: Window,
                    rank_bound: int, model: BNModel) -> List[dict]:
    """The wall records of all candidate walls of v with destabilizer rank
    within rank_bound, clipped to the window above the model's lower
    envelope (`jsonio.walls_from_json` decodes them into `Wall`s).

    rank_bound = 0 searches nothing and returns [].  Walls are
    deduplicated by line (complementary witnesses merge), pruned by the
    support form where the segment midpoint is certified above the upper
    envelope, and sorted by (slope value, line coeffs).
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

    # Bucket the candidates by line, then by Im interval: the window clip
    # and the carve depend on the line alone, the segment and its support
    # form on the interval too (complementary witnesses share both).
    r, d, n = v.r, v.d, v.n
    owner, box = (r, d, n), _box(window)
    by_line: Dict[tuple, dict] = {}
    for cand, gi in _candidates(v, box, rank_bound):
        rp, dp, np_ = cand
        # wall_line(v, cand), inline with no NumClass built; B != 0 here
        key = _normal(n * rp - np_ * r, r * dp - rp * d, n * dp - np_ * d)
        groups = by_line.get(key)
        if groups is None:
            by_line[key] = {gi: [cand]}
        else:
            cands = groups.get(gi)
            if cands is None:
                groups[gi] = [cand]
            else:
                cands.append(cand)

    def decide(items) -> list:
        walls = []
        for line, groups in items:
            wall = _fold(owner, line, _line_verdicts(
                owner, gg, line, groups, box, model), model.upper)
            if wall is not None:
                walls.append(wall)
        return walls

    # each line is decided from its own groups alone, so the lines can be
    # dealt to two processes and their records joined.  Fork only with one
    # thread: a fork copies only this one, and a lock that another thread
    # holds would stay held in the child.
    items = list(by_line.items())
    threading = sys.modules.get("threading")
    if (sum(map(len, by_line.values())) >= _SPLIT_GROUPS
            and hasattr(os, "fork")
            and (threading is None or threading.active_count() == 1)):
        walls = _forked(decide, items)
    else:
        walls = decide(items)
    walls.sort(key=lambda rec: _line_sort_key(rec["line"]))
    return walls


#: the (line, Im interval) groups from which `enumerate_walls` deals every
#: other line to a forked child.  On a 2-core x86-64 host (Python 3.11) a
#: fork, exit and reap take about 1.1 ms, a large split call takes about
#: 0.7 of its serial time (copy-on-write faults slow both halves), and a
#: call near this size costs about 8 us per group (4 to 10 over all
#: sizes): 0.3 * 8 us * G = 1.1 ms at G = 460.  Over the benchmark's
#: classes serial won 13 of 16 calls of 405-438 groups, the fork 16 to 18
#: of 20 of 465-531 (two runs).
_SPLIT_GROUPS = 450


def _forked(decide, items: list) -> list:
    """decide(items), with items[1::2] decided in one forked child that
    sends its records back over a pipe as `marshal` data.  This process
    decides them itself when the fork fails, the child exits nonzero or
    its data does not load.  The child is reaped on every path, and
    killed first if this process raises."""
    theirs = items[1::2]
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return decide(items)
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return decide(items)
    if pid == 0:  # the child never returns
        code = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pipe.write(marshal.dumps(decide(theirs)))
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        with open(rfd, "rb") as pipe:
            walls = decide(items[::2])
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        pid = None
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status == 0:
        try:
            return walls + marshal.loads(data)
        except (EOFError, ValueError, TypeError):
            pass
    return walls + decide(theirs)


def line_cmp(p, q) -> int:
    """Order of lines (A, B, C) with B != 0 by (-A/B, (A, B, C)), the
    slope compared by cross-multiplication: -A/B - (-A'/B') has the sign
    of A'*B - A*B' times that of B*B'.  `enumerate_walls` writes its
    records in this order and `jsonio.records_from_rows` checks it."""
    s = q[0] * p[1] - p[0] * q[1]
    if (p[1] < 0) is not (q[1] < 0):
        s = -s
    return s or (p > q) - (p < q)


_line_sort_key = cmp_to_key(line_cmp)


def _scaled(window: Window) -> tuple:
    """The window over one denominator m > 0: the integers (m, b_min*m,
    b_max*m, w_min*m, w_max*m)."""
    ends = (window.b_min, window.b_max, window.w_min, window.w_max)
    m = lcm(*(x.denominator for x in ends))
    return (m, *(x.numerator * (m // x.denominator) for x in ends))


def _box(window: Window) -> tuple:
    """The window's ends (b_min, b_max, w_min, w_max) as `_scaled`'s (x, m)."""
    m, *ends = _scaled(window)
    return tuple((x, m) for x in ends)


def _clip(line: tuple, box: tuple):
    """Closed b-range (lo, hi) of pairs where the line (B != 0) stays inside
    the window box, given by `_box`; None when empty."""
    A, B, C = line
    sb = 1 if B > 0 else -1
    lo, hi, wlo, whi = box
    for (p, q), sign in ((wlo, 1), (whi, -1)):
        # sign*(w(b) - p/q) >= 0  <=>  a*b + c >= 0
        k = sign * sb
        a, c = -k * q * A, k * (q * C - B * p)
        if a:
            lo, hi = _cut(lo, hi, a, c)
        elif c < 0:  # the window is closed: a line on its edge stays
            return None
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo, hi


def _carve(line: tuple, pl: PLFunction, lo: tuple, hi: tuple):
    """Closures of {b in [lo, hi] : w(b) > pl(b)} on the line (B != 0),
    with the point overrides that w fails to clear cut out: a sorted list
    of disjoint (lo, hi) pairs."""
    A, B, C = line
    sb = 1 if B > 0 else -1
    m, parts, _, points = pl.scaled
    mA, mC = m * A, m * C
    out = []
    for plo, phi, s, i in parts:
        a = lo if plo is None or plo * lo[1] <= lo[0] * m else (plo, m)
        b = hi if phi is None or phi * hi[1] >= hi[0] * m else (phi, m)
        # w(b) > (s*b + i)/m  <=>  ca*b + cc > 0
        ca, cc = -sb * (mA + B * s), sb * (mC - B * i)
        if ca:
            a, b = _cut(a, b, ca, cc)
        elif cc <= 0:  # on or below a flat piece is not above it
            continue
        if a[0] * b[1] >= b[0] * a[1]:
            continue
        # parts ascend, so a piece starts at or after the previous end
        if out and a[0] * out[-1][1][1] == out[-1][1][0] * a[1]:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    if not points:
        return out
    # w(x) <= v at an override (x/m, v/m) puts a hole at x/m
    holes = [(x, m) for x, v in points if sb * (v * B - mC + A * x) >= 0]
    final = []
    for a, b in out:
        for h in holes:
            if a[0] * h[1] < h[0] * a[1] and h[0] * b[1] < b[0] * h[1]:
                final.append((a, h))
                a = h
        final.append((a, b))
    return final


def _line_verdicts(owner: tuple, gg: int, line: tuple, groups: dict,
                   box: tuple, model: BNModel) -> list:
    """One verdict (kept, certified, feasibility, first, last) per group
    of (r', d', n') candidates of the class `owner` = (r, d, n) on `line`,
    keyed by Im interval, that keeps a candidate: the kept candidates,
    whether the group's segment midpoint is certified above the upper
    envelope, its Mercat test as 0 (Unknown), 1 (Pass) or 2 (Fail), and
    the segment's end pairs; `box` is the window as `_box` gives it."""
    clipped = _clip(line, box)
    # above the lower envelope, then inside each genuine interval
    carved = clipped and _carve(line, model.lower, *clipped)
    if not carved:
        return []
    A, B, C = line
    verdicts = []
    for (gl, gh), cands in groups.items():
        # the group's hull, and its parts when the Mercat test may read them
        parts = [] if gg >= 4 else None
        first = None
        for a, b in carved:
            if a[0] * gl[1] < gl[0] * a[1]:
                a = gl
            if gh[0] * b[1] < b[0] * gh[1]:
                b = gh
            if a[0] * b[1] < b[0] * a[1]:
                if first is None:
                    first = a
                last = b
                if parts is not None:
                    parts.append((a, b))
        if first is None:
            continue
        # segment midpoint b0 = bn/bd and w0 = (C*bd - A*bn)/(B*bd)
        (pn, pd), (qn, qd) = first, last
        bn, bd = _reduced(pn * qd + qn * pd, 2 * pd * qd)
        wn, wd = _reduced(C * bd - A * bn, B * bd)
        delta = _delta(model.upper, bn, bd, wn, wd)
        if delta is not None:
            cands = _q_nonnegative(owner, cands, bn, bd, wn, wd, *delta)
            if not cands:
                continue
        feas = 0
        # somewhere with b > 0 the line clears the Mercat bound
        if parts and any(c[0] for c in cands) and any(
                _carve(line, mercat_bound_pl(gg), a if a[0] > 0 else (0, 1), b)
                for a, b in parts):
            feas = 1
            for cand in cands:
                if cand[0]:
                    cr, cd, cn = cand if cand[0] > 0 else (-x for x in cand)
                    if region_uf_at(gg, cd, cr, cn, cr):
                        feas = 2
                        break
        verdicts.append((cands, delta is not None, feas, first, last))
    return verdicts


def _fold(owner: tuple, line: tuple, verdicts: list,
          upper: PLFunction) -> Optional[dict]:
    """The wall record of `line` for the class `owner` from its groups'
    `_line_verdicts`, in any order, or None when there is none: the union
    of the witnesses, q_nonneg Pass when some group was certified, the
    feasibility ranked Fail over Pass over Unknown, and the segment and
    its region on the hull of the group segments."""
    if not verdicts:
        return None
    witnesses = set()
    certified, feas = False, 0
    lo = hi = None
    for cands, cert, f, first, last in verdicts:
        witnesses.update(cands)
        certified = certified or cert
        feas = max(feas, f)
        if lo is None or first[0] * lo[1] < lo[0] * first[1]:
            lo = first
        if hi is None or last[0] * hi[1] > hi[0] * last[1]:
            hi = last
    return _record(owner, line, [list(c) for c in sorted(witnesses)], lo, hi,
                   ("Unknown", "Pass", "Fail")[feas], "Pass",
                   "Pass" if certified else "Unknown",
                   _segment_region_verdict(line, lo, hi, upper))


def _record(owner, line, witnesses: list, lo: tuple, hi: tuple,
            feasibility: str, im_positive: str, q_nonneg: str,
            region: str) -> dict:
    """The one writer of a wall record: the record of `line` = (A, B, C)
    (B != 0) for the class `owner`, with the witness lists, the segment's
    b ends `lo` and `hi` as (num, den) pairs (den > 0) and the four
    verdict texts.  "nu" = -A/B and the segment's texts, b and w = (C -
    A*b)/B at each end, are derived here in one `_ratio_texts` call."""
    A, B, C = line
    (pn, pd), (qn, qd) = lo, hi
    # over B > 0 every denominator below is positive
    a, b, c = (-A, B, C) if B > 0 else (A, -B, -C)
    nu, b0, w0, b1, w1 = _ratio_texts(
        (a, b), lo, (c * pd + a * pn, b * pd), hi, (c * qd + a * qn, b * qd))
    return {
        "owner": list(owner),
        "destabilizers": witnesses,
        "line": [A, B, C],
        "nu": nu,
        "segment": [[b0, w0], [b1, w1]],
        "verdicts": {"im_positive": im_positive, "q_nonneg": q_nonneg,
                     "feasibility": feasibility, "region": region},
    }


def _segment_region_verdict(line: tuple, lo: tuple, hi: tuple,
                            upper: PLFunction) -> str:
    """Pass when the open segment of the line (B != 0) over [lo, hi], as
    pairs, is certified above the upper envelope: at each end w >= upper
    and its one-sided limit on the segment's side, and at the midpoint and
    every breakpoint and point override strictly inside w > upper and both
    its one-sided limits."""
    A, B, C = line
    sb, aB = (1, B) if B > 0 else (-1, -B)
    m = upper.scaled[0]
    # w(x) - upper(x) times |B|*m*xd at x = xn/xd, against the largest of
    # the value and the limits that count there: upper.at gives (value,
    # left limit, right limit, part index)
    for (xn, xd), side in ((lo, 2), (hi, 1)):
        at = upper.at(xn, xd)
        if sb * m * (C * xd - A * xn) < aB * max(at[0], at[side]):
            return "Unknown"
    inner = [(x, m) for x in upper.knot_xs
             if lo[0] * m < x * lo[1] and x * hi[1] < hi[0] * m]
    inner.append((lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]))
    for xn, xd in inner:
        if sb * m * (C * xd - A * xn) <= aB * max(upper.at(xn, xd)[:3]):
            return "Unknown"
    return "Pass"


# ---------------------------------------------------------------------------
# chamber decomposition


@dataclass(frozen=True)
class ChamberReport:
    """The chambers of the walls of `owner`.  `center` is the projection
    of `owner` as its text pair ["b", "w"] (None at rank zero); `chambers`
    holds one record per chamber, the dict that
    `jsonio.chamber_report_to_json` writes: "index", "kind" ("window",
    "sector" or "strip"), "bounds", "meets_window", "sample" (a text pair)
    and "region" (a `RegionVerdict` value, or None without a model)."""

    owner: NumClass
    kind: str  # "pencil" | "strips" | "window"
    center: Optional[list]
    chambers: List[dict]


def _chord(u: tuple, box: tuple) -> list:
    """The ends of the chord {t*u : t > 0} of the integer box (x0, x1, y0,
    y1), as triples (X, Y, T) with T > 0 for (X/T, Y/T): each slab cuts t
    to an interval of (num, den) pairs, compared by cross-multiplying."""
    lo, hi = (0, 1), None
    for p, a, b in ((u[0], box[0], box[1]), (u[1], box[2], box[3])):
        if p == 0:
            if a > 0 or b < 0:
                return []
            continue
        if p < 0:
            a, b, p = -b, -a, -p
        if a * lo[1] > lo[0] * p:
            lo = (a, p)
        if hi is None or b * hi[1] < hi[0] * p:
            hi = (b, p)
    if hi[0] <= 0 or lo[0] * hi[1] > hi[0] * lo[1]:
        return []
    # t = 0 is the centre, no end of the chord
    ends = [hi] if lo[0] == 0 or lo[0] * hi[1] == hi[0] * lo[1] else [lo, hi]
    return [(t * u[0], t * u[1], z) for t, z in ends]


def _primitive(dx: int, dy: int) -> tuple:
    g = gcd(abs(dx), abs(dy))
    return (dx // g, dy // g)


def _ccw(p: tuple, q: tuple) -> int:
    """Negative when direction p comes before q counterclockwise from the
    positive b-axis: the upper half-plane (angles [0, pi)) first, then
    within a half-plane the sign of -cross(p, q); exact integers."""
    hp = 0 if p[1] > 0 or (p[1] == 0 and p[0] > 0) else 1
    hq = 0 if q[1] > 0 or (q[1] == 0 and q[0] > 0) else 1
    return (hp - hq) or (p[1] * q[0] - p[0] * q[1])


_ray_sort_key = cmp_to_key(_ccw)

#: the bits of the four corners of the box, in `chamber_decomposition`
_BITS = (1, 2, 4, 8)


#: order of pairs (num, den) with den > 0 by value, cross-multiplied
_ratio_sort_key = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])


def chamber_decomposition(v: NumClass, records: Sequence[dict],
                          window: Window,
                          model: Optional[BNModel] = None) -> ChamberReport:
    """Chambers cut out by the given walls of v, given as the records that
    `enumerate_walls` returns; only each record's "owner" and its integer
    "line" are read.  A line that is not normalized ((A, B) != (0, 0),
    gcd 1, the first nonzero of (A, B) positive) raises DomainError; one
    that is not a wall of v, and any line for the zero class, raises
    MixedOwnership.

    Nonzero rank: the angular sectors around the projection of v in
    circular order; rank zero: parallel strips ordered by intercept.
    Each chamber record carries a rational sample point, whether it meets
    the window, and (when a model is supplied) the region verdict at the
    sample.
    """
    own = list(v.as_tuple())
    for rec in records:
        if rec["owner"] != own:
            raise MixedOwnership(
                f"wall of {NumClass(*rec['owner'])} passed to a "
                f"decomposition for {v}"
            )

    lines = list(dict.fromkeys(tuple(rec["line"]) for rec in records))
    r, d, n = v.r, v.d, v.n
    # every wall of v passes through its projection (d/r, n/r); at rank
    # zero this says that every wall runs along the direction (d, n), and
    # the zero class has none
    for A, B, C in lines:
        # normalized: gcd 1 and the first nonzero of (A, B) positive
        if gcd(A, B, C) != 1 or A < 0 or A == 0 and B <= 0:
            raise DomainError(f"line {(A, B, C)} is not normalized")
        if A * d + B * n != C * r or not (r or d or n):
            raise MixedOwnership(f"line {(A, B, C)} is not a wall of {v}")
    center = [ratio_text(d, r), ratio_text(n, r)] if r else None
    # the window is [x0/m, x1/m] x [y0/m, y1/m]
    m, x0, x1, y0, y1 = _scaled(window)

    if not lines:
        return ChamberReport(v, "window", center, _chamber_records(
            "window", [([], True, x0 + x1, 2 * m, y0 + y1, 2 * m)], model))

    if r != 0:
        # each line's upper-half direction, in order, then their negations:
        # records ascend in slope, so the sort merges a few ascending runs
        rays = [_primitive(-B, A) if A else (1, 0) for A, B, _ in lines]
        rays.sort(key=_ray_sort_key)
        rays += [(-x, -y) for x, y in rays]
        # the window relative to the centre (d/r, n/r), times D = |r|*m:
        # an integer box (as `_chord` reads it) with corners (x, y, 1)
        s = 1 if r > 0 else -1
        box = tuple(abs(r) * x - s * e * m
                    for x, e in ((x0, d), (x1, d), (y0, n), (y1, n)))
        corners = [(x, y, 1) for x in box[:2] for y in box[2:]]
        centre_in = box[0] <= 0 <= box[1] and box[2] <= 0 <= box[3]
        # per ray: its chord, the sum of the chord's ends as one triple
        # (X, Y, T), and the bit sets of the corners strictly on its left
        # and strictly on its right
        per_ray = []
        for u in rays:
            ux, uy = u
            ch = _chord(u, box)
            if len(ch) == 2:
                (ax, ay, az), (bx, by, bz) = ch
                total = (ax * bz + bx * az, ay * bz + by * az, az * bz)
            else:
                total = ch[0] if ch else (0, 0, 1)
            left = right = 0
            for bit, (qx, qy, _) in zip(_BITS, corners):
                cross = ux * qy - uy * qx
                if cross > 0:
                    left |= bit
                elif cross < 0:
                    right |= bit
            per_ray.append((ux, uy, ch, total, left, right))
        size = abs(r) * m  # D
        # the centre (d/r, n/r) over the denominator D
        cx, cy = s * d * m, s * n * m
        rows = []
        k = len(rays)
        for (ux, uy, ch, t1, left, _), (vx, vy, ch2, t2, _, right) in zip(
                per_ray, per_ray[1:] + per_ray[:1]):
            # the vertices of the window cut to the closed sector: its rays'
            # chord ends, the corners strictly inside, and the centre when
            # it is the apex or ends a half-plane's boundary chord
            pts = ch + ch2
            inside = left & right
            if inside:
                pts += [q for bit, q in zip(_BITS, corners) if inside & bit]
            if centre_in and (ux * vy > uy * vx or not ch or not ch2):
                pts.append((0, 0, 1))
            # the cut has nonzero area when a point lies off the line
            # through the first two (distinct) ones: off the plane normal
            # to their cross product
            meets = False
            if len(pts) > 2:
                (px, py, pz), (qx, qy, qz) = pts[0], pts[1]
                nx, ny = py * qz - pz * qy, pz * qx - px * qz
                nz = px * qy - py * qx
                for x, y, z in pts[2:]:
                    if nx * x + ny * y + nz * z:
                        meets = True
                        break
            if meets:
                # the vertex average: the two chords' sums over the product
                # of their denominators, plus the corners and the centre
                z1, z2 = t1[2], t2[2]
                den = z1 * z2
                sx = t1[0] * z2 + t2[0] * z1
                sy = t1[1] * z2 + t2[1] * z1
                for x, y, _ in pts[len(ch) + len(ch2):]:
                    sx += x * den
                    sy += y * den
                den *= len(pts)
            else:
                # the centre plus an inner direction; one line (k == 2)
                # leaves u2 = -u, the half-plane on the left of u
                ix, iy = (-uy, ux) if k == 2 else (ux + vx, uy + vy)
                sx, sy, den = ix * size, iy * size, 1
            # the sample (d/r + sx/(den*D), n/r + sy/(den*D))
            rows.append(([[ux, uy], [vx, vy]], meets, cx * den + sx,
                         size * den, cy * den + sy, size * den))
        return ChamberReport(v, "pencil", center,
                             _chamber_records("sector", rows, model))

    # rank zero: the walls (k*p, C), k > 0, of v are the lines p.(b, w) =
    # C/k, and the window's corners have p-values X/m
    p = _normal(n, -d, 0)[:2]
    cuts = sorted(((C, gcd(A, B)) for A, B, C in lines), key=_ratio_sort_key)
    # the lowest corner in p, the least (b, w) at its value, and the
    # highest, the greatest (b, w) at its value
    corners = sorted((p[0] * x + p[1] * y, x, y)
                     for x in (x0, x1) for y in (y0, y1))
    (l_min, *c_min), (l_max, *c_max) = corners[0], corners[-1]
    lo, hi = (l_min, m), (l_max, m)
    ends = [None] + cuts + [None]
    rows = []
    for t_lo, t_hi in zip(ends, ends[1:]):
        o_lo = lo if t_lo is None else max(t_lo, lo, key=_ratio_sort_key)
        o_hi = hi if t_hi is None else min(t_hi, hi, key=_ratio_sort_key)
        meets = o_lo[0] * o_hi[1] < o_hi[0] * o_lo[1]
        if meets:
            # on the diagonal from the lowest corner to the highest
            base = (2 * c_min[0], 2 * c_min[1])
            step = (c_max[0] - c_min[0], c_max[1] - c_min[1])
        else:
            # on the strip's middle line nearest the window centre; an
            # outermost strip is cut two units beyond its one wall
            o_lo = t_lo or (t_hi[0] - 2 * t_hi[1], t_hi[1])
            o_hi = t_hi or (t_lo[0] + 2 * t_lo[1], t_lo[1])
            base, step = (x0 + x1, y0 + y1), p
        # the sample (base + lam*step)/2m at the middle t of the overlap,
        # or of the strip: p.sample = t gives lam = num/den with den > 0
        (a, e), (c, f) = o_lo, o_hi
        num = m * (a * f + c * e) - e * f * (p[0] * base[0] + p[1] * base[1])
        den = e * f * (p[0] * step[0] + p[1] * step[1])
        bounds = [None if t is None else ratio_text(*t) for t in (t_lo, t_hi)]
        rows.append((bounds, meets, base[0] * den + num * step[0], 2 * m * den,
                     base[1] * den + num * step[1], 2 * m * den))
    return ChamberReport(v, "strips", None,
                         _chamber_records("strip", rows, model))


#: a `RegionVerdict` -> its value, the text a chamber record holds
_REGION_TEXTS = {verdict: verdict.value for verdict in RegionVerdict}


def _chamber_records(kind: str, rows: list,
                     model: Optional[BNModel]) -> List[dict]:
    """The records of the chambers 0, 1, ... of `kind`, given one row
    (bounds, meets_window, bn, bd, wn, wd) each with bd, wd > 0: the
    sample (bn/bd, wn/wd) as `_ratio_texts` writes it, and `region_at`'s
    verdict there (None without a model)."""
    records = []
    for i, (bounds, meets, bn, bd, wn, wd) in enumerate(rows):
        records.append({
            "index": i,
            "kind": kind,
            "bounds": bounds,
            "meets_window": meets,
            "sample": _ratio_texts((bn, bd), (wn, wd)),
            "region": None if model is None
            else _REGION_TEXTS[region_at(model, bn, bd, wn, wd)],
        })
    return records


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
    r, d, n = v.as_tuple() if v.r > 0 else (-x for x in v.as_tuple())
    if region_uf_at(gg, d, r, n, r):
        return BogomolovVerdict.EXCLUDED
    return BogomolovVerdict.NOT_EXCLUDED
