"""Piecewise-linear envelope models bracketing the section-count function.

The section-count function of a genus-g curve (sup of h^0/rk over
semistable sheaves of a given slope, upper-semicontinuously regularized)
is not computable exactly in general.  This module represents what *is*
known about it: exact piecewise-linear lower and upper envelopes, a
Mercat-type refinement of the upper bound for g >= 4, and the one family
where the function is classically known exactly (g = 1).  Region
membership against these envelopes is decided with exact rational
arithmetic and a three-valued verdict.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Optional, Sequence, Tuple

from .errors import DomainError, GenusOutOfRange, InvalidEnvelope
from .lattice import Genus, GenusLike, genus_value


def _frac(x) -> Fraction:
    if type(x) is Fraction:  # immutable: no copy needed
        return x
    if isinstance(x, float):
        raise TypeError(f"floats are not exact; got {x!r}")
    return Fraction(x)


#: an integer as arguments write one, an optional sign and ASCII digits:
#: the integer half of `_RATIONAL`
INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(f"({INTEGER.pattern})(?:/([0-9]+))?")


def rat(s) -> Fraction:
    """Parse a rational written as an optional sign, digits and an optional
    "/digits" (str() of an int qualifies); anything else, a zero
    denominator included, raises DomainError."""
    m = _RATIONAL.fullmatch(str(s))
    if m is None:
        raise DomainError(f"bad rational {s!r}: expected an integer or p/q")
    num, den = m.groups()
    try:  # int() refuses more than sys.get_int_max_str_digits() digits
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational {s!r}: {exc}") from exc


class RegionVerdict(str, Enum):
    IN = "In"
    OUT = "Out"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function with left-closed pieces.

    `pieces` is an ascending list of (breakpoint x_i, slope s_i, value v_i);
    piece i covers [x_i, x_{i+1}) as v_i + s_i*(x - x_i), the last piece
    extends to +infinity.  For x below the first breakpoint the left tail
    `left_value + left_slope*(x - x_1)` applies, where `left_value` is the
    left limit at x_1 (a jump at x_1 is allowed).  `point_values` lists
    isolated overrides (x, value) for upper-semicontinuous spikes that a
    piece list cannot express.
    """

    pieces: Tuple[Tuple[Fraction, Fraction, Fraction], ...]
    left_slope: Fraction
    left_value: Fraction
    point_values: Tuple[Tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        pieces = tuple(
            (_frac(x), _frac(s), _frac(v)) for x, s, v in self.pieces
        )
        if not pieces:
            raise InvalidEnvelope("a PLFunction needs at least one piece")
        xs = [p[0] for p in pieces]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InvalidEnvelope(f"breakpoints must strictly increase: {xs}")
        overrides = tuple(
            sorted((_frac(x), _frac(v)) for x, v in self.point_values)
        )
        seen = [x for x, _ in overrides]
        if len(set(seen)) != len(seen):
            raise InvalidEnvelope("duplicate point-value overrides")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "left_slope", _frac(self.left_slope))
        object.__setattr__(self, "left_value", _frac(self.left_value))
        object.__setattr__(self, "point_values", overrides)

    @cached_property
    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple(x for x, _, _ in self.pieces)

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        return Fraction(self.at(x.numerator, x.denominator)[0],
                        self.scaled[0] * x.denominator)

    def at(self, xn: int, xd: int) -> tuple:
        """(value, left limit, right limit, j) at x = xn/xd (xd > 0), the
        first three each as a numerator over m*xd, m being the denominator
        of `scaled`, and j the index in `scaled`'s parts of the part
        holding x."""
        m, parts, _, points = self.scaled
        xm = xn * m
        # find the part holding x, and the one to its left when x is that
        # part's low end; a part's value at x is (s*xn + i*xd)/(m*xd)
        prev = None
        for j, part in enumerate(parts):
            if part[1] is None or xm < part[1] * xd:
                break
            prev = part
        if part[0] is None or part[0] * xd != xm:
            prev = part
        right = part[2] * xn + part[3] * xd
        left = prev[2] * xn + prev[3] * xd
        for px, pv in points:
            if px * xd == xm:
                return pv * xd, left, right, j
        return right, left, right, j

    def affine_parts(self):
        """Yield (lo, hi, slope, value_at_ref, ref) covering the whole line.

        lo/hi are Fractions or None for an unbounded side; on [lo, hi) the
        function is value_at_ref + slope*(x - ref), ignoring point
        overrides (query `point_values` for those).
        """
        x1 = self.pieces[0][0]
        yield (None, x1, self.left_slope, self.left_value, x1)
        for i, (xi, si, vi) in enumerate(self.pieces):
            hi = self.pieces[i + 1][0] if i + 1 < len(self.pieces) else None
            yield (xi, hi, si, vi, xi)

    @cached_property
    def scaled(self) -> tuple:
        """The function over one common denominator m, for exact integer
        arithmetic: (m, parts, knots, points).

        `parts` lists (lo, hi, slope, intercept) of each of
        `affine_parts` times m (None for an unbounded side), so at the
        point x/m the part's value is (slope*x + intercept*m)/m^2.
        `knots` lists (x, value) with x times m and value times m^2: at
        each part's finite ends and each point override, the highest of
        the parts' values and the override there.  `points` lists the
        point overrides (x, value), both times m.
        """
        lines = [(lo, hi, s, v - s * ref)
                 for lo, hi, s, v, ref in self.affine_parts()]
        m = 1
        for row in lines + list(self.point_values):
            for q in row:
                if q is not None:
                    m = lcm(m, q.denominator)

        def sc(q):
            return None if q is None else q.numerator * (m // q.denominator)

        parts = tuple(tuple(sc(q) for q in row) for row in lines)
        knots = [(x, s * x + i * m) for lo, hi, s, i in parts
                 for x in (lo, hi) if x is not None]
        points = tuple((sc(x), sc(v)) for x, v in self.point_values)
        knots.extend((x, v * m) for x, v in points)
        top = {}
        for x, u in knots:
            top[x] = max(u, top.get(x, u))
        return m, parts, tuple(top.items()), points

    @cached_property
    def certificate_rows(self) -> tuple:
        """The rows of `walls.find_delta`'s certificate over `scaled`:
        (every row, the rows of each part), a row set being (knots,
        parts) of `scaled`, each part standing for its parabola-vertex
        row.  A knot's row is the tightest of those at its x.

        The rows of part j are those that can fail for a midpoint b0 in
        it when upper(b0) >= p_j(b0), p_j being the part's affine
        function.  Then w0 - delta >= p_j(b0) + delta and t^2/delta +
        delta >= 2|t| (t = x - b0), so a knot's row is positive when
        u - p_j(b) < 2|x - b| on the part's closed interval (the left
        side minus the right is concave in b: test the finite ends and x,
        and an unbounded end by p_j's slope), when u <= p_j(x) and
        |slope_j| < 2, or when u is at most p_j's infimum there.  A
        vertex row, at least head - delta*(1 + s^2/4), is positive when
        |s| < 2 and its part lies at or below p_j on the interval.  Parts
        with no such row get ()."""
        m, parts, knots, _ = self.scaled

        def kept(part):
            lo, hi, s, _ = part
            ends = [e for e in (lo, hi) if e is not None]

            def at(x, p=part):
                return p[2] * x + p[3] * m

            def safe(x, u):
                inner = ends + [x] if ((lo is None or lo <= x)
                                       and (hi is None or x <= hi)) else ends
                return ((abs(s) < 2 * m and u <= at(x))
                        or ((lo is not None or s <= 0)
                            and (hi is not None or s >= 0)
                            and all(u <= at(e) for e in ends))
                        or ((lo is not None or s < 2 * m)
                            and (hi is not None or s > -2 * m)
                            and all(u - at(b) < 2 * m * abs(x - b)
                                    for b in inner)))

            rows = (tuple(k for k in knots if not safe(*k)),
                    tuple(p for p in parts if not (
                        abs(p[2]) < 2 * m
                        and (lo is not None or p[2] >= s)
                        and (hi is not None or p[2] <= s)
                        and all(at(e, p) <= at(e) for e in ends))))
            return rows if any(rows) else ()

        return (knots, parts), tuple(map(kept, parts))

    @cached_property
    def knot_xs(self) -> list:
        """The breakpoints, then the point overrides, each x times m."""
        _, parts, _, points = self.scaled
        return [part[0] for part in parts[1:]] + [x for x, _ in points]


def _probes(f: PLFunction, g_fn: PLFunction) -> list:
    """The breakpoints and overrides of both functions (ascending), one
    point beyond each end, then the midpoint of each gap between them."""
    grid = sorted(set(f.breakpoints) | set(g_fn.breakpoints)
                  | {x for x, _ in f.point_values}
                  | {x for x, _ in g_fn.point_values})
    return grid + [grid[0] - 1, grid[-1] + 1] + [
        Fraction(a + b, 2) for a, b in zip(grid, grid[1:])]


def pl_equal(f: PLFunction, g_fn: PLFunction) -> bool:
    """Exact pointwise equality of two piecewise-linear functions."""
    if f.left_slope != g_fn.left_slope:
        return False
    # Two affines agreeing at two points of an interval agree on it, so
    # breakpoints + midpoints + one point beyond each tail are sufficient.
    probes = _probes(f, g_fn)
    return all(f(x) == g_fn(x) for x in probes + [max(probes) + 1])


@dataclass(frozen=True)
class BNModel:
    """Bracketing envelopes (lower <= Phi <= upper) for one curve model."""

    lower: PLFunction
    upper: PLFunction
    exact: bool
    genus: Genus
    name: str

    def __post_init__(self):
        g = self.genus.g
        _check_forced_tails(self.lower, g, "lower")
        _check_forced_tails(self.upper, g, "upper")
        for x in _probes(self.lower, self.upper):
            if self.lower(x) > self.upper(x):
                raise InvalidEnvelope(
                    f"lower({x}) = {self.lower(x)} exceeds "
                    f"upper({x}) = {self.upper(x)}"
                )
        if self.exact and not pl_equal(self.lower, self.upper):
            raise InvalidEnvelope("exact model requires lower == upper")

    @cached_property
    def key_text(self) -> str:
        """The model's `jsonio.model_to_json` document as compact JSON
        with sorted keys, as wall cache keys hold it: built once per
        model object, and `make_model` shares each built-in one."""
        from .jsonio import model_to_json  # jsonio imports this module
        return json.dumps(model_to_json(self), sort_keys=True,
                          separators=(",", ":"))


def _check_forced_tails(f: PLFunction, g: int, which: str):
    """Envelopes must be 0 on x<0 and x+1-g on x>2g-2, exactly."""

    def bad(msg):
        raise InvalidEnvelope(f"{which} envelope: {msg}")

    top = Fraction(2 * g - 2)
    for lo, hi, s, v, ref in f.affine_parts():
        # Overlap of [lo, hi) with the open negative axis.
        neg_hi = Fraction(0) if hi is None else min(hi, Fraction(0))
        if lo is None or lo < neg_hi:
            if s != 0 or v != 0:
                bad(f"must vanish on x<0, found slope {s}, value {v}")
        # Overlap of [lo, hi) with the open region x > 2g-2.
        pos_lo = top if lo is None else max(lo, top)
        if hi is None or pos_lo < hi:
            if s != 1 or v != ref + 1 - g:
                bad(
                    f"must equal x+1-g beyond {top}, found slope {s}, "
                    f"value {v} anchored at {ref}"
                )
    for x, v in f.point_values:
        if x < 0 and v != 0:
            bad(f"point value at {x} must be 0")
        if x > top and v != x + 1 - g:
            bad(f"point value at {x} must be {x + 1 - g}")


def general_upper(x, g: GenusLike) -> Fraction:
    """Generic upper envelope: 0 / Clifford bound x/2 + 1 / x + 1 - g."""
    return make_model("general", g).upper(x)


def lower_envelope(x, g: GenusLike) -> Fraction:
    """Riemann-Roch floor: 0 for x < 0, max(0, x + 1 - g) for x >= 0."""
    return make_model("general", g).lower(x)


def mercat_upper(x, g: GenusLike) -> Fraction:
    """Mercat-type four-piece upper bound f(b), defined for b > 0, g >= 4.

    The g >= 4 gate orders the printed breakpoints correctly; the Clifford
    index hypothesis behind the bound is a caller responsibility since it
    is not a function of g alone.
    """
    gg = genus_value(g)
    if gg <= 3:
        raise GenusOutOfRange(f"mercat bound needs genus >= 4, got {gg}")
    x = _frac(x)
    if x <= 0:
        raise DomainError(f"mercat bound is defined for b > 0, got {x}")
    return mercat_bound_pl(gg)(x)


def _lower_pl(g: int) -> PLFunction:
    if g == 1:
        pieces = ((Fraction(0), Fraction(1), Fraction(0)),)
    else:
        pieces = (
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(g - 1), Fraction(1), Fraction(0)),
        )
    return PLFunction(pieces, Fraction(0), Fraction(0))


def _general_upper_pl(g: int) -> PLFunction:
    if g == 1:  # the Clifford interval collapses to {0}
        pieces = ((Fraction(0), Fraction(1), Fraction(0)),)
        overrides = ((Fraction(0), Fraction(1)),)
    else:
        top = Fraction(2 * g - 2)
        pieces = (
            (Fraction(0), Fraction(1, 2), Fraction(1)),
            (top, Fraction(1), Fraction(g - 1)),
        )
        overrides = ((top, Fraction(g)),)
    return PLFunction(pieces, Fraction(0), Fraction(0), overrides)


@lru_cache(maxsize=64)
def mercat_bound_pl(g: int) -> PLFunction:
    """The Mercat bound f(b) on b > 0, for g >= 4 (its left tail, 0 on
    b < 0, lies outside the bound's domain): slope 1/g up to
    b1 = 2 + 2/(g-2), then b/2 up to b2 = 2g - 4 - 2/(g-2), then slope
    1 - 1/g up to 3g - 3, then b + 1 - g.  At g = 4 the middle piece is
    empty and dropped."""
    inv_g = Fraction(1, g)
    b1 = 2 + Fraction(2, g - 2)
    b2 = 2 * g - 4 - Fraction(2, g - 2)
    pieces = [(Fraction(0), inv_g, 1 - inv_g)]
    if b1 < b2:
        pieces.append((b1, Fraction(1, 2), b1 / 2))
    pieces += [(b2, 1 - inv_g, b2 / 2),
               (Fraction(3 * g - 3), Fraction(1), Fraction(2 * g - 2))]
    return PLFunction(tuple(pieces), Fraction(0), Fraction(0))


def _mercat_upper_pl(g: int) -> PLFunction:
    # Pointwise min of the general and Mercat bounds on b > 0: the Mercat
    # bound wins on (0, 2g-2], the forced tail x+1-g wins beyond.  The
    # value at b = 0 stays the general one (Mercat needs b > 0).
    bound = mercat_bound_pl(g)
    top = Fraction(2 * g - 2)
    pieces = [p for p in bound.pieces if p[0] < top]
    pieces.append((top, Fraction(1), Fraction(g - 1)))
    overrides = ((Fraction(0), Fraction(1)), (top, bound(top)))
    return PLFunction(tuple(pieces), Fraction(0), Fraction(0), overrides)


def make_model(kind: str, g: GenusLike,
               user_data: Optional[tuple] = None) -> BNModel:
    """Build a named envelope model.

    kind "general": Riemann-Roch floor vs Clifford-bounded ceiling, any g.
    kind "mercat": ceiling sharpened by the Mercat bound, g >= 4.
    kind "elliptic": the exact g = 1 function (0 / 1 at 0 / x), whose
      values come from Riemann-Roch plus the classification of semistable
      bundles on an elliptic curve; it equals the general g = 1 upper bound.
    kind "user": user_data = (lower, upper, exact) with PLFunctions.
    A built-in model is built and checked once per (kind, genus), then
    shared; a user model is checked on every call.
    """
    genus = g if isinstance(g, Genus) else Genus(g)
    if kind != "user":
        return _builtin_model(kind, genus.g)
    if user_data is None:
        raise InvalidEnvelope("user model needs (lower, upper, exact)")
    lower, upper, exact = user_data
    return BNModel(lower, upper, bool(exact), genus, "user")


@lru_cache(maxsize=64)
def _builtin_model(kind: str, g: int) -> BNModel:
    genus = Genus(g)
    if kind == "general":
        return BNModel(_lower_pl(g), _general_upper_pl(g), False, genus,
                       "general")
    if kind == "mercat":
        if g <= 3:
            raise GenusOutOfRange(f"mercat model needs genus >= 4, got {g}")
        return BNModel(_lower_pl(g), _mercat_upper_pl(g), False, genus,
                       "mercat")
    if kind == "elliptic":
        if g != 1:
            raise GenusOutOfRange(f"elliptic model needs genus 1, got {g}")
        pl = _general_upper_pl(1)
        return BNModel(pl, pl, True, genus, "elliptic")
    raise DomainError(f"unknown model kind {kind!r}")


def _pl_from_json(rows: Sequence) -> PLFunction:
    """Decode a triple list; the first triple is the left tail."""
    if len(rows) < 2:
        raise InvalidEnvelope("need a left-tail triple plus >= 1 piece")
    parsed = [(rat(x), rat(s), rat(v)) for x, s, v in rows]
    _, ls, lv = parsed[0]
    return PLFunction(tuple(parsed[1:]), ls, lv)


def model_from_json(doc: dict, g: GenusLike) -> BNModel:
    """Load a user model from {"lower": [[b, slope, value], ...],
    "upper": [...], "exact": bool}, numbers as "p/q" strings or ints."""
    try:
        lower = _pl_from_json(doc["lower"])
        upper = _pl_from_json(doc["upper"])
        exact = doc["exact"]
        if not isinstance(exact, bool):
            raise TypeError(f"exact must be true or false, got {exact!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            DomainError) as exc:
        raise InvalidEnvelope(f"malformed user model: {exc}") from exc
    return make_model("user", g, (lower, upper, exact))


def region_uc(point: tuple, model: BNModel) -> RegionVerdict:
    """Membership of (b, w) in the region above the section-count function.

    In when w > upper(b), Out when w <= lower(b), Unknown in the band
    between; exact models never answer Unknown.
    """
    b, w = _frac(point[0]), _frac(point[1])
    return region_at(model, b.numerator, b.denominator, w.numerator,
                     w.denominator)


def region_at(model: BNModel, bn: int, bd: int, wn: int,
              wd: int) -> RegionVerdict:
    """`region_uc` at (bn/bd, wn/wd), bd and wd > 0, in integers: an
    envelope's value at b is `PLFunction.at(bn, bd)[0]` over m*bd."""
    upper, lower = model.upper, model.lower
    if wn * upper.scaled[0] * bd > upper.at(bn, bd)[0] * wd:
        return RegionVerdict.IN
    if wn * lower.scaled[0] * bd <= lower.at(bn, bd)[0] * wd:
        return RegionVerdict.OUT
    return RegionVerdict.UNKNOWN


def region_uf(point: tuple, g: GenusLike) -> bool:
    """Exact membership in the convex region above the Mercat bound."""
    gg = genus_value(g)
    if gg <= 3:
        raise GenusOutOfRange(f"the convex region needs genus >= 4, got {gg}")
    b, w = _frac(point[0]), _frac(point[1])
    return region_uf_at(gg, b.numerator, b.denominator, w.numerator,
                        w.denominator)


def region_uf_at(gg: int, bn: int, bd: int, wn: int, wd: int) -> bool:
    """`region_uf` at (bn/bd, wn/wd), bd and wd > 0 and gg >= 4, in
    integers: b > 0 and w above the bound's value `PLFunction.at(bn,
    bd)[0]` over m*bd."""
    if bn <= 0:
        return False
    uf = mercat_bound_pl(gg)
    return wn * uf.scaled[0] * bd > uf.at(bn, bd)[0] * wd
