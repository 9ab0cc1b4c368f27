"""Independent grid-scan oracle for wall enumeration tests.

Detects candidate wall lines by exact sign changes of the slope
difference at genuine grid nodes (both flip endpoints genuine, or an
exact zero at a genuine node), then applies the documented midpoint
support-form rule computed from scratch.  Shares no code with
`cswalls.walls`: its wall lines and its delta are its own.
"""

import math
from fractions import Fraction as F
from math import gcd

from cswalls.lattice import NumClass, project


def _wall_line(v, c):
    """The normalized (A, B, C) of A*b + B*w = C where v and c have equal
    slice slopes, None when there is no such line: the cross product
    v x c = (x, y, z) gives A = y, B = z and C = -x."""
    x = v.d * c.n - v.n * c.d
    y = v.n * c.r - v.r * c.n
    z = v.r * c.d - v.d * c.r
    if y == 0 and z == 0:
        return None
    g = gcd(x, y, z)
    if y < 0 or (y == 0 and z < 0):
        g = -g
    return y // g, z // g, -x // g


def _delta(b0, w0, upper):
    """The first delta = (w0 - upper(b0))/2^k, k = 1, 2, ..., at which
    q(x) = (x - b0)^2/delta + w0 - delta - upper(x) is positive at every
    piece end, every in-range parabola vertex b0 + s*delta/2 and every
    point override; None unless w0 lies above upper(b0) and above both
    one-sided limits of upper at b0."""
    parts = list(upper.affine_parts())
    limits = [val + s * (b0 - ref) for lo, hi, s, val, ref in parts
              if (lo is None or lo <= b0) and (hi is None or b0 <= hi)]
    if not all(w0 > y for y in limits + [upper(b0)]):
        return None
    delta = w0 - upper(b0)
    while True:
        delta /= 2
        rows = []
        for lo, hi, s, val, ref in parts:
            xs = [x for x in (lo, hi) if x is not None]
            vertex = b0 + s * delta / 2
            if (lo is None or lo < vertex) and (hi is None or vertex < hi):
                xs.append(vertex)
            rows += [(x, val + s * (x - ref)) for x in xs]
        rows += upper.point_values
        if all((x - b0) ** 2 / delta + w0 - delta > y for x, y in rows):
            return delta


def grid_oracle(v, g, window, rank_bound, model, cells):
    """Detect candidate wall lines by exact sign changes of the slope
    difference on a rational grid, keeping only flips between genuine
    nodes, then apply the documented midpoint support-form rule."""
    r, d, n = v.as_tuple()
    bs = [window.b_min + (window.b_max - window.b_min) * F(j, cells)
          for j in range(cells + 1)]
    ws = [window.w_min + (window.w_max - window.w_min) * F(i, cells)
          for i in range(cells + 1)]
    # every node shares one denominator per axis, so the sign tests below
    # run on the integer node coordinates bi[j] = bs[j]*db, wi[i] = ws[i]*dw
    db = math.lcm(*(b.denominator for b in bs))
    dw = math.lcm(*(w.denominator for w in ws))
    bi = [int(b * db) for b in bs]
    wi = [int(w * dw) for w in ws]
    # w > lower(b) at a node <=> wi > floor(lower(b)*dw)
    lower_at = [math.floor(model.lower(b) * dw) for b in bs]

    def candidates():
        out = []
        if r != 0:
            beta, eta = project(v)
            for rp in range(-rank_bound, rank_bound + 1):
                dlo = min(window.b_min * rp, window.b_max * rp)
                dhi = max(d + window.b_min * (rp - r),
                          d + window.b_max * (rp - r))
                for dp in range(math.ceil(dlo), math.floor(dhi) + 1):
                    if rp == 0 and dp < 1:
                        continue
                    if r * dp - rp * d == 0:
                        continue
                    lo, hi = window.b_min, window.b_max
                    for a_coef, c_coef in ((-rp, dp), (rp - r, d - dp)):
                        if a_coef == 0:
                            if c_coef <= 0:
                                lo, hi = F(1), F(0)
                            continue
                        root = F(-c_coef, a_coef)
                        if a_coef > 0:
                            lo = max(lo, root)
                        else:
                            hi = min(hi, root)
                    if lo >= hi:
                        continue
                    slopes = [(w - eta) / (b - beta) for b in (lo, hi)
                              for w in (window.w_min, window.w_max)]
                    bb = F(r * dp - rp * d)
                    n_lo = (min(slopes) * bb + n * rp) / r
                    n_hi = (max(slopes) * bb + n * rp) / r
                    for np_ in range(math.ceil(min(n_lo, n_hi)),
                                     math.floor(max(n_lo, n_hi)) + 1):
                        if rp == 0 and gcd(dp, abs(np_)) != 1:
                            continue
                        out.append(NumClass(rp, dp, np_))
        else:
            for rp in range(-rank_bound, rank_bound + 1):
                if rp == 0:
                    continue
                dlo = min(window.b_min * rp, window.b_max * rp)
                dhi = max(d + window.b_min * rp, d + window.b_max * rp)
                for dp in range(math.ceil(dlo), math.floor(dhi) + 1):
                    vals = [n * rp * b - rp * d * w
                            for b in (window.b_min, window.b_max)
                            for w in (window.w_min, window.w_max)]
                    n_lo = (n * dp - max(vals)) / d
                    n_hi = (n * dp - min(vals)) / d
                    for np_ in range(math.ceil(min(n_lo, n_hi)),
                                     math.floor(max(n_lo, n_hi)) + 1):
                        out.append(NumClass(rp, dp, np_))
        return out

    def midpoint_q_ok(cand, A, B, C):
        if B == 0:
            return False
        slope = F(-A, B)
        w0 = F(C, B)
        lo, hi = window.b_min, window.b_max
        for a, c in ((slope, w0 - window.w_min),
                     (-slope, window.w_max - w0)):
            if a == 0:
                if c < 0:
                    return False
                continue
            root = -c / a
            if a > 0:
                lo = max(lo, root)
            else:
                hi = min(hi, root)
        slo, shi = lo, hi
        # strict conditions: the two im-parts, and w(b) above the lower
        # envelope max(0, b + 1 - g) written as two affine inequalities
        strict = [(F(-cand.r), F(cand.d)),
                  (F(cand.r - r), F(d - cand.d)),
                  (slope, w0),
                  (slope - 1, w0 + model.genus.g - 1)]
        for a, c in strict:
            if a == 0:
                if c <= 0:
                    return False
                continue
            root = -c / a
            if a > 0:
                slo = max(slo, root)
            else:
                shi = min(shi, root)
        if slo >= shi:
            return False
        mid = (slo + shi) / 2
        wm = w0 + slope * mid
        delta = _delta(mid, wm, model.upper)
        if delta is None:
            return True

        def q(cls):
            lin = cls.d - mid * cls.r
            return (lin * lin / delta + cls.r * cls.r * (wm - delta)
                    - cls.n * cls.r)

        return q(cand) >= 0 and q(v - cand) >= 0 and q(v) >= 0

    lines = set()
    for cand in candidates():
        line = _wall_line(v, cand)
        if line is None or line in lines:
            continue
        A, B, C = line
        col_ok = [
            (cand.d * db - b * cand.r > 0)
            and ((d - cand.d) * db - b * (r - cand.r) > 0)
            for b in bi
        ]
        if not any(col_ok):
            continue
        # sign of A*b + B*w - C at node (j, i) is that of col[j] + row[i]
        col = [(A * b - C * db) * dw for b in bi]
        row = [B * w * db for w in wi]
        step = wi[1] - wi[0]
        detected = False
        for j in range(cells):
            if not (col_ok[j] or col_ok[j + 1]):
                continue
            # only cells the line itself crosses can carry a flip or a
            # zero; restrict the row scan to that band (cells where all
            # four corners lie strictly on one side are sign-constant)
            if B != 0:
                # w(b)*dw = -col/(B*db) at both ends of the column pair
                w_lo, w_hi = sorted(F(-col[jj], B * db) for jj in (j, j + 1))
                if w_hi < wi[0] or w_lo > wi[cells]:
                    continue
                i0 = max(0, math.floor((w_lo - wi[0]) / step) - 1)
                i1 = min(cells - 1, math.ceil((w_hi - wi[0]) / step) + 1)
            else:
                i0, i1 = 0, cells - 1
            for i in range(i0, i1 + 1):
                corners = [(j, i), (j + 1, i), (j + 1, i + 1), (j, i + 1)]
                data = []
                for jj, ii in corners:
                    val = col[jj] + row[ii]
                    sign = 0 if val == 0 else (1 if val > 0 else -1)
                    data.append((sign, col_ok[jj] and wi[ii] > lower_at[jj]))
                for k in range(4):
                    s1, g1 = data[k]
                    s2, g2 = data[(k + 1) % 4]
                    if (s1 == 0 and g1) or (g1 and g2 and s1 * s2 < 0):
                        detected = True
                if detected:
                    break
            if detected:
                break
        if detected and midpoint_q_ok(cand, A, B, C):
            lines.add(line)
    return lines
