import functools
import hashlib
import json
import math
import os
import random
import threading
from fractions import Fraction as F
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from cswalls.charges import PlanePoint, mu_alpha, nu
from cswalls.envelopes import (PLFunction, RegionVerdict, _lower_pl,
                                make_model, model_from_json, region_uc)
from cswalls.errors import (
    DomainError,
    MixedOwnership,
    NotAboveEnvelope,
    ZeroAlpha,
    ZeroRank,
)
from cswalls.jsonio import (chamber_report_to_json, dumps,
                            dumps_chamber_report, walls_from_json)
from cswalls.lattice import NumClass, det3, project
from gridscan import _delta as grid_delta
from test_envelopes import _SMALL, _pl_functions
from cswalls.walls import (
    EVERYWHERE_EQUAL,
    NO_WALL,
    BogomolovVerdict,
    Check,
    Window,
    bogomolov_verdict,
    chamber_decomposition,
    delta_certificate,
    enumerate_walls,
    find_delta,
    ray_line,
    support_form_value,
    wall_line,
)

STD_WINDOW = Window(F(-3), F(3), F(1, 2), F(6))


def _corners(win):
    """The window's corners, counterclockwise from (b_min, w_min)."""
    return ((win.b_min, win.w_min), (win.b_max, win.w_min),
            (win.b_max, win.w_max), (win.b_min, win.w_max))


def _normalized(a, b, c):
    """(a, b, c) over its gcd, with the first nonzero of (a, b) positive."""
    g = gcd(a, b, c) * (-1 if a < 0 or (a == 0 and b < 0) else 1)
    return a // g, b // g, c // g


def _value_at(line, b, w):
    """A*b + B*w - C for the line (A, B, C)."""
    A, B, C = line
    return A * b + B * w - C


def _w_at(line, b):
    """The w of the line (A, B, C) at b, for B != 0."""
    A, B, C = line
    return F(C - A * b, B)


def rng_class(rng, bound=9):
    return NumClass(rng.randint(-bound, bound), rng.randint(-bound, bound),
                    rng.randint(-bound, bound))


def test_rational_line_normalization():
    # gcd 1 and the first nonzero of (A, B) positive: from the raw
    # (-2, -2, -4), (0, -4, -2), (-2, -2, -4) and (4, -2, 2)
    assert wall_line(NumClass(-2, -2, -2), NumClass(2, 3, 1)) == (1, 1, 2)
    assert wall_line(NumClass(-2, -1, -1), NumClass(2, 3, 1)) == (0, 2, 1)
    assert ray_line(NumClass(-2, -3, -1), F(1)) == (1, 1, 2)
    assert ray_line(NumClass(2, 4, 6), F(-2, 4)) == (2, -1, 1)


@pytest.mark.parametrize("call", [
    lambda: Window(-4, 4, 0.1, 8),
    lambda: support_form_value(NumClass(1, 0, 0), F(1, 2), 0.5, 1),
    lambda: find_delta(0.5, 3, make_model("general", 2)),
    lambda: find_delta(0, 3.0, make_model("general", 2)),
    lambda: delta_certificate(0, 3, 0.25, make_model("general", 2)),
    lambda: ray_line(NumClass(2, 3, 1), 0.1),
    lambda: PLFunction(((F(0), 0.5, F(0)),), F(0), F(0)),
    lambda: PlanePoint(0.5, 1),
    lambda: mu_alpha(NumClass(2, 3, 1), 0.5),
], ids=["window", "support-form", "find-delta-b0", "find-delta-w0",
        "delta-certificate", "ray-line", "pl-function", "plane-point",
        "mu-alpha"])
def test_exact_apis_reject_floats(call):
    with pytest.raises(TypeError, match="floats are not exact"):
        call()


def test_window_validation():
    with pytest.raises(DomainError):
        Window(F(1), F(1), F(0), F(2))


def test_wall_line_examples():
    line = wall_line(NumClass(2, 3, 1), NumClass(1, 1, 1))
    assert line == (1, 1, 2)
    # brute-force check: slope equality at two points of the line
    for b in (F(0), F(1, 2)):
        p = PlanePoint(b, _w_at(line, b))
        assert nu(NumClass(2, 3, 1), p) == nu(NumClass(1, 1, 1), p)
    assert _value_at(line, F(3, 2), F(1, 2)) == 0
    assert wall_line(NumClass(2, 3, 1), NumClass(4, 6, 2)) is EVERYWHERE_EQUAL
    assert wall_line(NumClass(0, 1, 0), NumClass(0, 1, 1)) is NO_WALL


def test_wall_line_pencil_and_constant_slope():
    rng = random.Random(61)
    done = 0
    while done < 200:
        v, vs = rng_class(rng), rng_class(rng)
        if v.r == 0:
            continue
        line = wall_line(v, vs)
        if line in (EVERYWHERE_EQUAL, NO_WALL):
            continue
        A, B, C = line
        beta, eta = project(v)
        assert A * beta + B * eta == C
        if B != 0:
            slope = F(-A, B)
            for b in (beta + 1, beta - F(2, 3)):
                p = PlanePoint(b, _w_at(line, b))
                assert nu(v, p) == slope
        else:
            # vertical wall through the projection: nu is +inf there
            p = PlanePoint(beta, eta + 5)
            assert nu(v, p) == math.inf
        done += 1


def test_wall_line_torsion_owner_slopes():
    rng = random.Random(62)
    done = 0
    while done < 100:
        d = rng.randint(1, 9)
        v = NumClass(0, d, rng.randint(-9, 9))
        vs = rng_class(rng)
        line = wall_line(v, vs)
        if line in (EVERYWHERE_EQUAL, NO_WALL) or line[1] == 0:
            continue
        assert F(-line[0], line[1]) == F(v.n, v.d)
        done += 1


def test_support_form_examples():
    # kernel class
    assert support_form_value(NumClass(1, 2, 3), F(2), F(3), F(5)) == -5
    assert support_form_value(NumClass(0, 4, 7), F(1), F(1), F(2)) == 8
    assert support_form_value(NumClass(1, 0, 0), F(0), F(2), F(1)) == 1
    with pytest.raises(DomainError):
        support_form_value(NumClass(1, 0, 0), F(0), F(1), F(0))


def test_kernel_negativity_random():
    rng = random.Random(63)
    for _ in range(100):
        b0 = F(rng.randint(-40, 40), rng.randint(1, 8))
        w0 = F(rng.randint(1, 60), rng.randint(1, 8))
        delta = F(rng.randint(1, 50), rng.randint(1, 8))
        q_num = b0.denominator * w0.denominator
        kernel = NumClass(q_num, int(b0 * q_num), int(w0 * q_num))
        assert (support_form_value(kernel, b0, w0, delta)
                == -delta * q_num * q_num)


def test_find_delta_examples_and_certificate():
    ell = make_model("elliptic", 1)
    assert find_delta(0, 2, ell) == F(1, 2)
    g3 = make_model("general", 3)
    assert find_delta(-1, F(1, 2), g3) == F(1, 4)
    for b0, w0, m in ((F(0), F(2), ell), (F(-1), F(1, 2), g3),
                      (F(5, 2), F(4), g3)):
        delta = find_delta(b0, w0, m)
        assert 0 < delta < w0
        rows = delta_certificate(b0, w0, delta, m)
        assert rows and all(q > 0 for _, q in rows)
    with pytest.raises(NotAboveEnvelope):
        find_delta(1, 1, g3)  # upper(1) = 3/2
    with pytest.raises(NotAboveEnvelope):
        find_delta(1, F(3, 2), g3)  # exactly on the envelope


def _user_model_with_overrides():
    upper = PLFunction(
        ((F(0), F(1, 2), F(1)), (F(2), F(1, 3), F(2)), (F(4), F(1), F(2))),
        F(0), F(0),
        ((F(0), F(1)), (F(1), F(5, 2)), (F(7, 2), F(17, 6)), (F(4), F(3))),
    )
    return make_model("user", 3, (_lower_pl(3), upper, False))


def _user_model_concave():
    # concave kinks at 1/2 and 1, so parabola vertices inside a piece
    # decide some certificates
    upper = PLFunction(
        ((F(0), F(2), F(0)), (F(1, 2), F(1, 2), F(1)),
         (F(1), F(1, 4), F(5, 4)), (F(4), F(1), F(2))),
        F(0), F(0), ((F(1, 2), F(3, 2)),),
    )
    return make_model("user", 3, (_lower_pl(3), upper, False))


def _linear_find_delta(b0, w0, model):
    """The reference `find_delta`: scan k = 1, 2, ... for the first
    halving head/2^k of the headroom whose certificate rows are all
    positive."""
    delta = (w0 - model.upper(b0)) / 2
    while not all(q > 0 for _, q in delta_certificate(b0, w0, delta, model)):
        delta /= 2
    return delta


def _tall_model(value):
    """Genus 2 with upper = `value` on [0, 2)."""
    return make_model("user", 2, (
        PLFunction(((F(0), F(0), F(0)), (F(1), F(1), F(0))), F(0), F(0)),
        PLFunction(((F(0), F(0), F(value)), (F(2), F(1), F(1))), F(0), F(0)),
        False,
    ))


@pytest.mark.parametrize("b0, w0", [
    (F(-1, 6), F(11, 2)), (F(-1, 1000), F(8)), (F(-3), F(1, 7)),
    (F(3), F(5)), (F(11, 5), F(3)), (F(7, 3), F(4, 3) + F(1, 10**9)),
])
def test_find_delta_matches_a_linear_scan_beside_a_tall_envelope(b0, w0):
    model = _tall_model(10 ** 400)  # first certified k up to about 1,350
    assert find_delta(b0, w0, model) == _linear_find_delta(b0, w0, model)


GENERAL2, CONCAVE = make_model("general", 2), _user_model_concave()
DELTA_MODELS = [make_model("general", g) for g in (1, 3)] + [
    make_model("mercat", g) for g in (4, 5, 6)
] + [make_model("elliptic", 1), _user_model_with_overrides(), GENERAL2,
     CONCAVE]


def _special_points(model):
    upper = model.upper
    xs = set(upper.breakpoints) | {x for x, _ in upper.point_values}
    return sorted(xs | {x + d for x in xs for d in (F(-1, 7), F(1, 5))})


@st.composite
def above_upper(draw):
    model = draw(st.sampled_from(DELTA_MODELS))
    b0 = draw(st.one_of(
        st.sampled_from(_special_points(model)),
        st.fractions(min_value=-6, max_value=14, max_denominator=12),
    ))
    excess = draw(st.fractions(min_value=F(1, 60), max_value=20,
                               max_denominator=60))
    return model, b0, model.upper(b0) + excess


@settings(max_examples=300, deadline=None)
@given(above_upper())
# at twice the answer a certificate row is exactly zero: a piece end,
# then a parabola vertex inside its piece
@example((GENERAL2, F(-1, 2), F(1)))
@example((CONCAVE, F(0), F(1, 16)))
@example((CONCAVE, F(1, 4), F(9, 16)))
def test_find_delta_returns_the_first_certifying_halving(case):
    model, b0, w0 = case
    head = w0 - model.upper(b0)
    delta = find_delta(b0, w0, model)
    assert delta == _linear_find_delta(b0, w0, model)
    ratio = head / delta
    assert ratio.denominator == 1 and ratio >= 2
    assert ratio.numerator & (ratio.numerator - 1) == 0  # a power of two
    assert all(q > 0 for _, q in delta_certificate(b0, w0, delta, model))
    if delta < head / 2:
        rows = delta_certificate(b0, w0, 2 * delta, model)
        assert any(q <= 0 for _, q in rows)


#: g = 2 with a point override below its piece at b = 1 (and one above
#: it at 2): there the piece's bounds on the certificate rows do not hold
DOWN_OVERRIDE = PLFunction(((F(0), F(1, 2), F(1)), (F(2), F(1), F(1))),
                           F(0), F(0), ((F(1), F(1, 2)), (F(2), F(2))))


@st.composite
def free_midpoints(draw):
    """A free upper envelope, b0 at one of its breakpoints or overrides,
    beside one, far out on a tail or anywhere, and w0 on or above
    upper(b0) and both its limits there."""
    upper = draw(_pl_functions())
    knots = list(upper.breakpoints) + [x for x, _ in upper.point_values]
    b0 = draw(st.one_of(
        st.sampled_from(knots), _SMALL,
        st.builds(lambda x, d: x + d, st.sampled_from(knots),
                  st.sampled_from([F(-1, 7), F(-1, 50), F(1, 50), F(1, 7)])),
        st.builds(lambda x, k: x + k, st.sampled_from([min(knots), max(knots)]),
                  st.sampled_from([-40, -6, 6, 40]))))
    top = max(upper.at(b0.numerator, b0.denominator)[:3])
    excess = draw(st.fractions(min_value=0, max_value=20,
                               max_denominator=60))
    return upper, b0, F(top, upper.scaled[0] * b0.denominator) + excess


@settings(max_examples=400, deadline=None)
@given(free_midpoints())
# upper(1) lies below its piece: delta is 5/32, where the piece's rows
# alone give 5/8
@example((DOWN_OVERRIDE, F(1), F(7, 4)))
# the knot (0, 1), which the left tail's rows keep, halves delta to 1/4
@example((GENERAL2.upper, F(-1, 2), F(1)))
def test_find_delta_matches_the_grid_oracle_on_free_envelopes(case):
    upper, b0, w0 = case
    expected = grid_delta(b0, w0, upper)
    model = SimpleNamespace(upper=upper)  # all that find_delta reads
    if expected is None:
        with pytest.raises(NotAboveEnvelope):
            find_delta(b0, w0, model)
    else:
        assert find_delta(b0, w0, model) == expected


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=30), st.fractions(max_denominator=30),
       st.fractions(min_value=F(1, 50), max_value=40, max_denominator=50),
       st.tuples(*[st.integers(-60, 60)] * 3))
def test_negative_q_matches_support_form_value(b0, w0, delta, rdn):
    from cswalls.walls import _q_nonnegative

    v = NumClass(*rdn)
    expected = support_form_value(v, b0, w0, delta) < 0
    form = (b0.numerator, b0.denominator, w0.numerator, w0.denominator,
            delta.numerator, delta.denominator)
    # as the owner, and as a candidate of the zero class, whose complement
    # -v has the same Q
    assert (_q_nonnegative(rdn, [], *form) is None) == expected
    assert _q_nonnegative((0, 0, 0), [rdn], *form) == (
        [] if expected else [rdn])


def test_ray_sort_key_is_exact_for_big_integer_rays():
    from cswalls.walls import _ray_sort_key

    ccw = [(1, 0), (10**19, 1), (1, 1), (0, 1), (-(10**19), 1), (-1, 0),
           (-(10**19), -1), (0, -1), (1, -1), (10**19, -1)]
    for seed in range(5):
        rays = ccw[:]
        random.Random(seed).shuffle(rays)
        assert sorted(rays, key=_ray_sort_key) == ccw


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 11), st.integers(-12, 12).filter(bool),
       st.integers(-60, 60), st.integers(-60, 60))
# on the bound at a breakpoint (g = 5: f(8/3) = 4/3), and just above it
@example(5, 3, 8, 4)
@example(5, -3, -8, -5)
@example(4, 1, 0, 1)
def test_mercat_region_test_matches_the_fraction_test(g, r, d, n):
    # region_uf and bogomolov_verdict (and through it the enumerator's
    # feasibility verdict) share one integer test; it must agree with
    # evaluating the bound at b = d/r in Fractions
    from cswalls.envelopes import mercat_bound_pl, region_uf

    b, w = project(NumClass(r, d, n))
    expected = b > 0 and w > mercat_bound_pl(g)(b)
    assert region_uf((b, w), g) is expected
    assert bogomolov_verdict(NumClass(r, d, n), g) is (
        BogomolovVerdict.EXCLUDED if expected
        else BogomolovVerdict.NOT_EXCLUDED)


#: line coefficients, small and beyond 2**64, where floats stop being exact
COEFFS = st.integers(-4, 4) | st.integers(-2**70, 2**70)


@st.composite
def normalized_lines(draw):
    """Distinct normalized lines (A, B, C) with B != 0 of either sign, many
    of them sharing a slope."""
    slopes = draw(st.lists(st.tuples(COEFFS, COEFFS.filter(bool)),
                           min_size=1, max_size=4))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        a, b = draw(st.sampled_from(slopes))
        k = draw(st.sampled_from([1, 2, -1, -3]))
        lines.append(_normalized(k * a, k * b, draw(COEFFS)))
    return list(dict.fromkeys(lines))


@settings(max_examples=300, deadline=None)
@given(normalized_lines())
# the slopes -1 and -(2**64 + 1)/2**64 round to the same float
@example([(2**64 + 1, 2**64, 0), (1, 1, 5), (1, 1, -5), (1, -1, 0),
          (2**64 + 1, -(2**64), 3)])
@example([(0, 1, 2), (0, 1, -2), (1, 2**70, 0), (1, -(2**70), 0)])
def test_line_order_is_the_exact_slope_order(lines):
    from cswalls.walls import _line_sort_key

    expected = sorted(lines, key=lambda k: (F(-k[0], k[1]), k))
    shuffled = lines[:]
    random.Random(len(lines)).shuffle(shuffled)
    assert sorted(shuffled, key=_line_sort_key) == expected
    # the records carry their lines as lists
    assert sorted(map(list, shuffled), key=_line_sort_key) == list(
        map(list, expected))


def test_ray_line_examples():
    assert ray_line(NumClass(2, 3, 1), F(1)) == (1, 1, 2)
    assert ray_line(NumClass(1, 0, 0), F(1)) == (1, 1, 0)
    with pytest.raises(ZeroRank):
        ray_line(NumClass(0, 1, 0), F(1))
    with pytest.raises(ZeroAlpha):
        ray_line(NumClass(2, 3, 1), F(0))
    A, B, _ = ray_line(NumClass(2, 3, 1), F(1, 2))
    assert F(-A, B) == -2  # slope -1/alpha


def test_enumerate_walls_rank_bound_zero():
    m = make_model("general", 2)
    win = Window(F(-3), F(-1), F(1, 2), F(6))
    assert enumerate_walls(NumClass(1, 0, 0), 2, win, 0, m) == []


def test_enumerate_walls_model_genus_mismatch():
    m = make_model("general", 2)
    with pytest.raises(DomainError):
        enumerate_walls(NumClass(2, 3, 1), 3, STD_WINDOW, 1, m)


def test_enumerate_walls_torsion_owner_horizontal():
    m = make_model("general", 2)
    walls = walls_from_json(enumerate_walls(NumClass(0, 1, 0), 2, STD_WINDOW,
                                            2, m))
    assert walls
    for w in walls:
        assert w.nu_value == 0  # n/d
        assert w.line[0] == 0  # horizontal lines
        assert w.owner == NumClass(0, 1, 0)


def test_enumerate_walls_invariants_main_instance():
    v = NumClass(2, 3, 1)
    m = make_model("general", 2)
    walls = walls_from_json(enumerate_walls(v, 2, STD_WINDOW, 3, m))
    assert walls
    beta, eta = project(v)
    seen_lines = set()
    for w in walls:
        line = w.line
        A, B, C = line
        assert line not in seen_lines  # deduplicated
        seen_lines.add(line)
        # pencil property
        assert A * beta + B * eta == C
        # nu constant on the wall, equal to the slope -A/B
        assert w.nu_value == F(-A, B)
        p0, p1 = w.segment
        assert A * p0.b + B * p0.w == C and A * p1.b + B * p1.w == C
        assert STD_WINDOW.contains(p0) and STD_WINDOW.contains(p1)
        mid = PlanePoint((p0.b + p1.b) / 2, (p0.w + p1.w) / 2)
        assert nu(v, mid) == w.nu_value
        # segments stay strictly on one side of the projection's abscissa
        assert p1.b < beta or p0.b > beta
        for name in ("im_positive", "q_nonneg", "feasibility", "region"):
            assert w.verdict(name) in (Check.PASS, Check.FAIL, Check.UNKNOWN)
        assert w.verdict("im_positive") is Check.PASS
        # witnesses genuinely produce this line
        for cand in w.destabilizers:
            assert wall_line(v, cand) == line
    # sorted by (nu, A, B, C)
    keys = [(w.nu_value == math.inf, w.nu_value if w.nu_value != math.inf
             else F(0), *w.line) for w in walls]
    assert keys == sorted(keys)


def test_enumerate_walls_complementary_witnesses_merge():
    v = NumClass(2, 3, 1)
    m = make_model("general", 2)
    walls = walls_from_json(enumerate_walls(v, 2, STD_WINDOW, 3, m))
    by_line = {w.line: w for w in walls}
    # (1,1,1) and its complement (1,2,0) both witness b + w = 2
    w = by_line[(1, 1, 2)]
    assert NumClass(1, 1, 1) in w.destabilizers
    assert NumClass(1, 2, 0) in w.destabilizers


def test_ray_transversality_against_enumerated_walls():
    v = NumClass(2, 3, 1)
    m = make_model("general", 2)
    walls = walls_from_json(enumerate_walls(v, 2, STD_WINDOW, 3, m))
    pi = project(v)
    for alpha in (F(1, 2), F(1), F(3)):
        ray = ray_line(v, alpha)
        ra, rb, rc = ray
        for w in walls:
            if w.line == ray:
                continue
            A, B, C = w.line
            det = A * rb - ra * B
            assert det != 0
            b = F(C * rb - rc * B, det)
            ww = F(A * rc - ra * C, det)
            assert (b, ww) == pi


from gridscan import grid_oracle


def test_oracle_agreement_small_instances():
    # small-instance equivalence of the grid oracle and the enumerator
    from test_cli import JUMP_MODEL

    m2 = make_model("general", 2)
    ell = make_model("elliptic", 1)
    m3 = make_model("general", 3)
    mer5 = make_model("mercat", 5)
    jump = model_from_json(JUMP_MODEL, 2)
    cases = [
        (NumClass(2, 3, 1), 2, Window(F(-2), F(2), F(1, 2), F(3)), 2, m2, 80),
        (NumClass(1, -1, 1), 2, Window(F(-3), F(1), F(1, 3), F(4)), 2, m2, 80),
        (NumClass(0, 1, 0), 2, Window(F(-2), F(2), F(1, 2), F(3)), 2, m2, 60),
        (NumClass(2, 1, 1), 1, Window(F(-2), F(2), F(1, 4), F(3)), 2, ell, 80),
        (NumClass(-2, 1, 1), 2, Window(F(-2), F(2), F(1, 2), F(3)), 2, m2, 80),
        (NumClass(2, 3, 1), 5, Window(-2, 6, F(1, 2), 6), 2, mer5, 80),
        (NumClass(2, 3, 2), 5, Window(-2, 6, F(1, 2), 6), 2, mer5, 80),
        (NumClass(1, -1, 1), 3, Window(-3, 3, F(1, 3), 4), 2, m3, 80),
        # a user upper envelope that jumps down at b = 2
        (NumClass(0, 2, 0), 2, Window(-2, 3, F(1, 4), 3), 2, jump, 80),
        (NumClass(2, 3, 1), 2, Window(-2, 3, F(1, 4), 3), 2, jump, 80),
        # the oracle's midpoint (2, 5/4) of w = 5/4 lies above upper(2) = 1
        # but below the left limit 15/8 there: the candidate is kept
        (NumClass(0, 2, 1), 2, Window(-4, 4, F(1, 4), 8), 2, jump, 80),
    ]
    for v, g, win, rb, model, cells in cases:
        exact = {tuple(rec["line"])
                 for rec in enumerate_walls(v, g, win, rb, model)}
        approx = grid_oracle(v, g, win, rb, model, cells)
        assert exact == approx, (v, exact ^ approx)


def test_chambers_examples():
    v = NumClass(2, 3, 1)
    m = make_model("general", 2)
    walls = enumerate_walls(v, 2, STD_WINDOW, 3, m)
    by_line = {tuple(rec["line"]): rec for rec in walls}
    two = [by_line[(1, 1, 2)], by_line[(4, 2, 7)]]
    rep = _decoded(chamber_decomposition(v, two, STD_WINDOW, m))
    assert rep.kind == "pencil"
    assert len(rep.chambers) == 4
    assert rep.center == PlanePoint(F(3, 2), F(1, 2))
    for ch in rep.chambers:
        assert ch.region is not None
        if ch.meets_window:
            assert STD_WINDOW.contains(ch.sample)
        # sample is strictly off every wall line
        for w in walls_from_json(two):
            assert _value_at(w.line, ch.sample.b, ch.sample.w) != 0

    rep0 = _decoded(chamber_decomposition(v, [], STD_WINDOW, m))
    assert len(rep0.chambers) == 1
    assert rep0.chambers[0].meets_window

    torsion = NumClass(0, 1, 0)
    tw = enumerate_walls(torsion, 2, STD_WINDOW, 2, m)
    k = len({tuple(rec["line"]) for rec in tw})
    rep1 = _decoded(chamber_decomposition(torsion, tw, STD_WINDOW, m))
    assert rep1.kind == "strips"
    assert len(rep1.chambers) == k + 1
    for ch in rep1.chambers:
        if ch.meets_window:
            assert STD_WINDOW.contains(ch.sample)

    # without a model every region is None, which the writer writes null
    for cls, ws in ((v, two), (v, []), (torsion, tw)):
        bare = chamber_decomposition(cls, ws, STD_WINDOW)
        assert {ch["region"] for ch in bare.chambers} == {None}
        assert dumps_chamber_report(bare) == dumps(chamber_report_to_json(bare))


def test_chambers_single_line_two_halves():
    v = NumClass(2, 3, 1)
    m = make_model("general", 2)
    walls = enumerate_walls(v, 2, STD_WINDOW, 3, m)
    one = [rec for rec in walls if rec["line"] == [1, 1, 2]]
    rep = _decoded(chamber_decomposition(v, one, STD_WINDOW, m))
    assert len(rep.chambers) == 2
    signs = set()
    for ch in rep.chambers:
        signs.add(_value_at((1, 1, 2), ch.sample.b, ch.sample.w) > 0)
    assert signs == {True, False}


def test_chambers_mixed_ownership():
    v = NumClass(2, 3, 1)
    m = make_model("general", 2)
    walls = enumerate_walls(v, 2, STD_WINDOW, 2, m)
    with pytest.raises(MixedOwnership):
        chamber_decomposition(NumClass(1, 1, 1), walls, STD_WINDOW, m)


def test_bogomolov_examples():
    assert bogomolov_verdict(NumClass(1, 1, 3), 5) is BogomolovVerdict.EXCLUDED
    assert bogomolov_verdict(NumClass(1, -1, 0), 5) is BogomolovVerdict.NOT_EXCLUDED
    assert bogomolov_verdict(NumClass(1, 15, 1), 5) is BogomolovVerdict.NOT_EXCLUDED
    assert bogomolov_verdict(NumClass(0, 4, 1), 5) is BogomolovVerdict.INAPPLICABLE
    assert bogomolov_verdict(NumClass(1, 1, 3), 3) is BogomolovVerdict.INAPPLICABLE


def test_segments_above_lower_envelope():
    v = NumClass(2, 3, 1)
    m = make_model("general", 2)
    for w in walls_from_json(enumerate_walls(v, 2, STD_WINDOW, 3, m)):
        p0, p1 = w.segment
        mid_b = (p0.b + p1.b) / 2
        mid_w = (p0.w + p1.w) / 2
        assert mid_w > m.lower(mid_b)


def _carve_fractions(line, pl, lo, hi):
    from cswalls.walls import _carve

    pieces = _carve(line, pl, (lo.numerator, lo.denominator),
                    (hi.numerator, hi.denominator))
    return [(F(*a), F(*b)) for a, b in pieces]


def test_affine_above_pl_carves_isolated_spikes():
    ell = make_model("elliptic", 1)
    # constant height 1/2: above the elliptic envelope for b < 1/2 except
    # at the isolated spike value 1 at b = 0
    parts = _carve_fractions((0, 2, 1), ell.lower, F(-2), F(2))
    assert parts == [(F(-2), F(0)), (F(0), F(1, 2))]
    # height 2 clears the spike: single component up to b = 2
    parts = _carve_fractions((0, 1, 2), ell.lower, F(-2), F(2))
    assert parts == [(F(-2), F(2))]


def test_enumerate_walls_elliptic_model():
    ell = make_model("elliptic", 1)
    win = Window(F(-2), F(2), F(1, 4), F(3))
    v = NumClass(2, 1, 1)
    walls = walls_from_json(enumerate_walls(v, 1, win, 2, ell))
    assert walls
    beta, eta = project(v)
    spiked = 0
    for w in walls:
        A, B, C = w.line
        assert A * beta + B * eta == C
        p0, p1 = w.segment
        for p in w.segment:
            assert win.contains(p)
        # exact model: segments are certified inside the region unless the
        # stored hull meets an isolated envelope spike it fails to clear
        expected = Check.PASS
        for x, vo in ell.upper.point_values:
            height = _w_at(w.line, x)
            below = height < vo and p0.b <= x <= p1.b
            touches = height == vo and p0.b < x < p1.b
            if below or touches:
                expected = Check.UNKNOWN
                spiked += 1
        assert w.verdict("region") is expected
        mid_b = (p0.b + p1.b) / 2
        assert (p0.w + p1.w) / 2 > ell.lower(mid_b)
    assert spiked > 0  # the spike-crossing configuration is exercised


def _user_model_lower_spikes():
    lower = PLFunction(
        ((F(0), F(0), F(0)), (F(2), F(1), F(0))), F(0), F(0),
        ((F(1), F(1, 2)), (F(3, 2), F(1, 3)), (F(3), F(2))),
    )
    upper = PLFunction(
        ((F(0), F(1, 2), F(1)), (F(4), F(1), F(2))), F(0), F(0),
        ((F(4), F(3)),),
    )
    return make_model("user", 3, (lower, upper, False))


CARVE_MODELS = [make_model("general", g) for g in (2, 3, 4, 5)] + [
    make_model("mercat", g) for g in (4, 5, 6)
] + [make_model("elliptic", 1), _user_model_lower_spikes()]


@st.composite
def line_window_model(draw):
    model = draw(st.sampled_from(CARVE_MODELS))
    b = st.fractions(min_value=-6, max_value=12, max_denominator=6)
    w = st.fractions(min_value=-2, max_value=10, max_denominator=6)
    b_min, b_max = sorted(draw(st.lists(b, min_size=2, max_size=2,
                                        unique=True)))
    w_min, w_max = sorted(draw(st.lists(w, min_size=2, max_size=2,
                                        unique=True)))
    bb = draw(st.integers(-9, 9).filter(lambda x: x != 0))
    line = _normalized(draw(st.integers(-9, 9)), bb,
                       draw(st.integers(-40, 40)))
    return line, Window(b_min, b_max, w_min, w_max), model


@settings(max_examples=400, deadline=None)
@given(line_window_model())
# horizontal lines on the bottom and top edge of a closed window, the
# first also on general g=2's flat lower piece: the a == 0 branches
@example(((0, 1, 0), Window(-2, 3, 0, 2), CARVE_MODELS[0]))
@example(((0, 1, 2), Window(-2, 3, 0, 2), CARVE_MODELS[0]))
def test_integer_clip_and_carve_agree_with_fractions(case):
    from cswalls.walls import _box, _carve, _clip

    line, win, model = case
    clipped = _clip(line, _box(win))
    if clipped is None:
        # the line misses the closed box: every corner strictly on one side
        sides = {_value_at(line, b, w) > 0 for b, w in _corners(win)}
        assert len(sides) == 1 and all(
            _value_at(line, b, w) != 0 for b, w in _corners(win))
        return
    lo, hi = F(*clipped[0]), F(*clipped[1])
    for x in (lo, hi):
        assert win.contains(PlanePoint(x, _w_at(line, x)))
    # each end is tight: a window side, or the line leaves the strip there
    assert lo == win.b_min or _w_at(line, lo) in (win.w_min, win.w_max)
    assert hi == win.b_max or _w_at(line, hi) in (win.w_min, win.w_max)

    lower = model.lower

    def above(x):
        return _w_at(line, x) > lower(x)

    pieces = [(F(*a), F(*b)) for a, b in _carve(line, lower, *clipped)]
    for a, b in pieces:
        assert lo <= a < b <= hi
        assert above((a + b) / 2)
    for (_, b), (a, _) in zip(pieces, pieces[1:]):
        assert b <= a
        assert not above((a + b) / 2)
    # every override the line fails to clear is cut out
    for x, vo in lower.point_values:
        if _w_at(line, x) <= vo:
            assert not any(a < x < b for a, b in pieces)


@functools.lru_cache(maxsize=None)
def _delta_models():
    """`CARVE_MODELS`, then two genus 2 user upper envelopes that jump
    down: `JUMP_MODEL` at b = 2, and one of slope 2 on [0, 1), where a
    parabola vertex decides the first halvings."""
    from test_cli import JUMP_MODEL

    steep = make_model("user", 2, (
        PLFunction(((F(0), F(0), F(0)), (F(1), F(1), F(0))), F(0), F(0)),
        PLFunction(((F(0), F(2), F(0)), (F(1), F(1), F(0)),
                    (F(2), F(1), F(1))), F(0), F(0)),
        False,
    ))
    return CARVE_MODELS + [model_from_json(JUMP_MODEL, 2), steep]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(CARVE_MODELS) + 1),
       st.fractions(-6, 12, max_denominator=6) | st.sampled_from(
           [F(0), F(1), F(2), F(1, 2)]),
       st.fractions(-2, 20, max_denominator=6))
# between upper(2) = 1 and the left limit 15/8 of the jump; and the vertex
# row at b = 1/2 of the slope 2 piece, the only row that refuses k = 1
@example(len(CARVE_MODELS), F(2), F(1, 4))
@example(len(CARVE_MODELS) + 1, F(1, 4), F(1, 2))
def test_oracle_delta_matches_find_delta(i, b0, offset):
    # the grid oracle certifies its own delta from the README's rows
    from gridscan import _delta

    model = _delta_models()[i]
    w0 = model.upper(b0) + offset
    try:
        expected = find_delta(b0, w0, model)
    except NotAboveEnvelope:
        expected = None
    assert _delta(b0, w0, model.upper) == expected


def test_upper_envelope_jumping_down_leaves_midpoints_unpruned():
    model = make_model("user", 2, (
        PLFunction(((F(0), F(0), F(0)), (F(1), F(1), F(0))), F(0), F(0)),
        PLFunction(((F(0), F(3, 4), F(1)), (F(1, 2), F(1, 3), F(11, 8)),
                    (F(2), F(1), F(1))), F(0), F(0)),
        False,
    ))
    # upper(2) = 1 < 3/2, but the left limit at 2 is 15/8
    assert model.upper(2) == 1
    with pytest.raises(NotAboveEnvelope):
        find_delta(2, F(3, 2), model)
    delta = find_delta(2, 2, model)  # above the left limit too
    assert all(q > 0 for _, q in delta_certificate(2, 2, delta, model))
    # a segment midpoint at (2, 3/2) is left unpruned instead of failing
    win = Window(F(-4), F(4), F(1, 4), F(8))
    walls = enumerate_walls(NumClass(0, 2, 0), 2, win, 2, model)
    assert [0, 2, 3] in [rec["line"] for rec in walls]


def _segment_clears(line, lo, hi, upper) -> bool:
    """Exactly, piece by piece: w >= upper at lo and hi, and w > upper
    on the open segment (lo, hi) of the line."""
    def excess(x, slope, value, ref):
        return _w_at(line, x) - (value + slope * (x - ref))

    if _w_at(line, lo) < upper(lo) or _w_at(line, hi) < upper(hi):
        return False
    spikes = {x for x, _ in upper.point_values}
    for plo, phi, s, val, ref in upper.affine_parts():
        a = lo if plo is None else max(lo, plo)
        b = hi if phi is None else min(hi, phi)
        if a >= b:
            continue
        ea, eb = excess(a, s, val, ref), excess(b, s, val, ref)
        # an affine excess is positive on (a, b) iff it is >= 0 at both
        # ends and not 0 at both; a piece starting inside needs > 0 there
        if ea < 0 or eb < 0 or ea == eb == 0:
            return False
        if a > lo and a not in spikes and ea == 0:
            return False
    return all(_w_at(line, x) > val for x, val in upper.point_values
               if lo < x < hi)


def test_region_pass_segments_clear_the_upper_envelope():
    # genus 2; the user upper envelope rises as 2b and drops to b - 1 at 1
    jump = make_model("user", 2, (
        PLFunction(((F(0), F(0), F(0)), (F(1), F(1), F(0))), F(0), F(0)),
        PLFunction(((F(0), F(2), F(0)), (F(1), F(1), F(0)),
                    (F(2), F(1), F(1))), F(0), F(0)),
        False,
    ))
    windows = [Window(F(-1, 2), F(1), F(1, 4), F(8)),
               Window(F(-1), F(3), F(0), F(4))]
    passes = 0
    for model in (jump, make_model("general", 2), make_model("mercat", 5)):
        g = model.genus.g
        for v in ((0, 2, 0), (1, 1, 0), (2, 3, 1), (-1, 2, 1)):
            for win in windows:
                for w in walls_from_json(
                        enumerate_walls(NumClass(*v), g, win, 3, model)):
                    if w.verdict("region") is Check.PASS:
                        passes += 1
                        p0, p1 = w.segment
                        assert _segment_clears(w.line, p0.b, p1.b,
                                               model.upper), (model.name, w)
    assert passes > 0
    # the segment over [-1/2, 1] at w = 1 dips under 2b before the jump
    walls = enumerate_walls(NumClass(0, 2, 0), 2, windows[0], 3, jump)
    flat = [rec for rec in walls if rec["line"] == [0, 1, 1]]
    assert [rec["verdicts"]["region"] for rec in flat] == ["Unknown"]


def _fraction_candidates(v, window, rank_bound):
    """The Fraction candidate generator that `enumerate_walls` used before
    its integer rewrite, kept as the reference for `_candidates`: yields
    ((r', d', n'), Im interval as a pair of (numerator, denominator))."""

    def solve_linear(a, c):
        # {x : a*x + c > 0} as (lo, hi, empty), None for an open side
        if a == 0:
            return None, None, not c > 0
        root = -c / a
        return (root, None, False) if a > 0 else (None, root, False)

    def im_interval(v_sub):
        lo1, hi1, e1 = solve_linear(F(-v_sub.r), F(v_sub.d))
        lo2, hi2, e2 = solve_linear(F(v_sub.r - v.r), F(v.d - v_sub.d))
        if e1 or e2:
            return None
        lo = max(x for x in (lo1, lo2, window.b_min) if x is not None)
        hi = min(x for x in (hi1, hi2, window.b_max) if x is not None)
        return None if lo >= hi else (lo, hi)

    def slope_range(gl, gh, beta, eta):
        slopes = [(w - eta) / (b - beta) for b in (gl, gh)
                  for w in (window.w_min, window.w_max)]
        return min(slopes), max(slopes)

    def int_range(x, y):
        lo, hi = (x, y) if x <= y else (y, x)
        return range(math.ceil(lo), math.floor(hi) + 1)

    def pairs(interval):
        return tuple((x.numerator, x.denominator) for x in interval)

    r, d, n = v.r, v.d, v.n
    if v.r != 0:
        beta, eta = project(v)
        flo, fhi, _ = solve_linear(F(-r), F(d))
        flo = window.b_min if flo is None else max(flo, window.b_min)
        fhi = window.b_max if fhi is None else min(fhi, window.b_max)
        if flo > fhi:
            return
        for rp in range(-rank_bound, rank_bound + 1):
            dlo = min(flo * rp, fhi * rp)
            dhi = max(d + flo * (rp - r), d + fhi * (rp - r))
            for dp in int_range(dlo, dhi):
                if rp == 0 and dp < 1:
                    continue
                if r * dp - rp * d == 0:
                    continue
                gi = im_interval(NumClass(rp, dp, 0))
                if gi is None:
                    continue
                slo, shi = slope_range(*gi, beta, eta)
                bb = F(r * dp - rp * d)
                n_from = (slo * bb + n * rp) / r
                n_to = (shi * bb + n * rp) / r
                for np_ in int_range(n_from, n_to):
                    if rp == 0 and gcd(dp, abs(np_)) != 1:
                        continue
                    yield (rp, dp, np_), pairs(gi)
    elif d != 0:
        for rp in range(-rank_bound, rank_bound + 1):
            if rp == 0:
                continue
            dlo = min(window.b_min * rp, window.b_max * rp)
            dhi = max(d + window.b_min * rp, d + window.b_max * rp)
            for dp in int_range(dlo, dhi):
                gi = im_interval(NumClass(rp, dp, 0))
                if gi is None:
                    continue
                aa, bb = F(n * rp), F(-rp * d)
                vals = [aa * b + bb * w for b in gi
                        for w in (window.w_min, window.w_max)]
                n_from = (n * dp - min(vals)) / d
                n_to = (n * dp - max(vals)) / d
                for np_ in int_range(n_from, n_to):
                    yield (rp, dp, np_), pairs(gi)


@st.composite
def class_window_bound(draw):
    v = NumClass(draw(st.integers(-3, 3)), draw(st.integers(-6, 6)),
                 draw(st.integers(-6, 6)))
    b = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    w = st.fractions(min_value=-2, max_value=8, max_denominator=7)
    b_min, b_max = sorted(draw(st.lists(b, min_size=2, max_size=2,
                                        unique=True)))
    w_min, w_max = sorted(draw(st.lists(w, min_size=2, max_size=2,
                                        unique=True)))
    return v, Window(b_min, b_max, w_min, w_max), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(class_window_bound())
# a window end at d/r, for positive and negative rank
@example((NumClass(2, 3, 1), Window(F(-1, 2), F(3, 2), F(1, 3), F(9, 2)), 3))
@example((NumClass(-2, 3, 1), Window(F(-3, 2), F(5, 2), F(1, 3), F(9, 2)), 3))
# window ends at Im-interval roots d'/r' = -1/2 and 1/3, rank zero too
@example((NumClass(2, 3, 1), Window(F(-1, 2), F(1, 3), F(1, 2), F(6)), 3))
@example((NumClass(0, 3, -1), Window(F(-1, 2), F(1, 3), F(-1, 3), F(5)), 3))
@example((NumClass(0, -2, 1), Window(F(-4), F(4), F(1, 4), F(8)), 2))
@example((NumClass(1, 0, 0), Window(F(-4), F(4), F(1, 4), F(8)), 2))
def test_integer_candidates_match_the_fraction_reference(case):
    from collections import Counter

    from cswalls.walls import _box, _candidates

    v, win, rank_bound = case
    got = Counter(_candidates(v, _box(win), rank_bound))
    assert got == Counter(_fraction_candidates(v, win, rank_bound))
    for (rp, dp, np_), ((ln, ld), (hn, hd)) in got:
        assert isinstance(np_, int) and ld > 0 and hd > 0
        assert gcd(ln, ld) == 1 and gcd(hn, hd) == 1


# ---------------------------------------------------------------------------
# the two-process split: above `_SPLIT_GROUPS` groups, `enumerate_walls`
# deals every other line to one forked child


def _split_cases():
    """(class, genus, window, rank bound, model): ranks -2 to 3 under six
    models, rank bounds 1-3, two windows."""
    from test_cli import JUMP_MODEL

    models = [(2, make_model("general", 2)), (3, make_model("general", 3)),
              (4, make_model("mercat", 4)), (5, make_model("mercat", 5)),
              (1, make_model("elliptic", 1)),
              (2, model_from_json(JUMP_MODEL, 2))]
    classes = [NumClass(-2, 1, 1), NumClass(-1, 2, 0), NumClass(0, 3, 1),
               NumClass(1, -1, 1), NumClass(2, 3, 1), NumClass(3, 2, 2)]
    windows = [STD_WINDOW, Window(F(-4), F(4), F(1, 4), F(8))]
    for i, (g, model) in enumerate(models):
        for j, v in enumerate(classes):
            yield v, g, windows[(i + j) % 2], 1 + (i + j) % 3, model


def _counting_fork(monkeypatch) -> list:
    """Patch `os.fork` to record, in the returned list, each child pid."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def test_split_enumeration_is_exact_and_reaps_its_child(monkeypatch):
    import cswalls.walls as walls

    forks = _counting_fork(monkeypatch)
    for case in _split_cases():
        monkeypatch.setattr(walls, "_SPLIT_GROUPS", float("inf"))
        serial = enumerate_walls(*case)
        assert forks == []
        monkeypatch.setattr(walls, "_SPLIT_GROUPS", 0)
        assert enumerate_walls(*case) == serial
        assert len(forks) == 1
        forks.clear()
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fault", ["fork fails", "child raises",
                                   "second thread"])
def test_split_falls_back_to_the_serial_records(monkeypatch, fault):
    import cswalls.walls as walls

    case = (NumClass(2, 3, 1), 2, STD_WINDOW, 3, make_model("general", 2))
    monkeypatch.setattr(walls, "_SPLIT_GROUPS", float("inf"))
    serial = enumerate_walls(*case)
    monkeypatch.setattr(walls, "_SPLIT_GROUPS", 0)
    forks = _counting_fork(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if fault == "child raises":
        # the child decides nothing, and this process decides its lines
        pid, line_wall = os.getpid(), walls._line_verdicts

        def kernel(*args):
            if os.getpid() != pid:
                raise RuntimeError("the child's kernel fails")
            return line_wall(*args)

        monkeypatch.setattr(walls, "_line_verdicts", kernel)
    else:
        def fork():
            if fault == "second thread":
                raise AssertionError("forked beside a second thread")
            raise OSError("no process left")

        monkeypatch.setattr(os, "fork", fork)
        if fault == "second thread":
            thread.start()
    try:
        assert enumerate_walls(*case) == serial
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == (fault == "child raises")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# metamorphic gates for the enumerator: a wall record is the fold of its
# groups' verdicts, and its witnesses nest in the rank bound and close
# under the complement


@functools.lru_cache(maxsize=None)
def _gate_models():
    """(genus, model): general, Mercat at g = 4 and 5, elliptic, jump."""
    from test_cli import JUMP_MODEL

    return ((2, make_model("general", 2)), (4, make_model("mercat", 4)),
            (5, make_model("mercat", 5)), (1, make_model("elliptic", 1)),
            (2, model_from_json(JUMP_MODEL, 2)))


@st.composite
def _walls_cases(draw):
    """(class, genus, window, rank bound 1-3, model) for `enumerate_walls`."""
    g, model = draw(st.sampled_from(_gate_models()))
    v = NumClass(draw(st.integers(-3, 3)), draw(st.integers(-5, 5)),
                 draw(st.integers(-5, 5)))
    win = draw(st.sampled_from([STD_WINDOW,
                                Window(F(-4), F(4), F(1, 4), F(8))]))
    return v, g, win, draw(st.integers(1, 3)), model


@settings(max_examples=30, deadline=None)
@given(_walls_cases(), st.integers(0, 2 ** 32))
# a line whose two groups differ in feasibility
@example((NumClass(0, 1, 0), 4, STD_WINDOW, 1, make_model("mercat", 4)), 0)
def test_folding_a_partition_of_the_groups_gives_the_lines_record(case,
                                                                  seed):
    import cswalls.walls as walls

    v, g, win, rank_bound, model = case
    rnd = random.Random(seed)
    records = {tuple(rec["line"]): rec for rec in enumerate_walls(*case)}
    owner, box = v.as_tuple(), walls._box(win)
    by_line = {}
    for cand, gi in walls._candidates(v, box, rank_bound):
        groups = by_line.setdefault(wall_line(v, NumClass(*cand)), {})
        groups.setdefault(gi, []).append(cand)
    assert set(records) <= set(by_line)
    for line, groups in by_line.items():
        halves = ([], [])
        for item in groups.items():
            halves[rnd.randrange(2)].append(item)
        verdicts = []
        for half in halves:
            rnd.shuffle(half)
            verdicts += walls._line_verdicts(owner, g, line, dict(half),
                                             box, model)
        for joined in (verdicts, verdicts[::-1]):
            assert walls._fold(owner, line, joined,
                               model.upper) == records.get(line)
    assert walls._fold(owner, (1, 1, 0), [], model.upper) is None


@settings(max_examples=25, deadline=None)
@given(_walls_cases(), st.integers(1, 2))
def test_a_larger_rank_bound_keeps_each_wall_and_its_witnesses(case, more):
    v, g, win, rank_bound, model = case
    wider = {tuple(rec["line"]): rec["destabilizers"] for rec in
             enumerate_walls(v, g, win, rank_bound + more, model)}
    for rec in enumerate_walls(*case):
        line = tuple(rec["line"])
        assert line in wider
        assert rec["destabilizers"] == [c for c in wider[line]
                                        if abs(c[0]) <= rank_bound]


@settings(max_examples=40, deadline=None)
@given(_walls_cases())
def test_a_witness_and_its_searched_complement_are_witnesses_together(case):
    # a search class has |r'| <= rank bound, and at rank zero it is
    # primitive with d' >= 1
    v, g, win, rank_bound, model = case
    for rec in enumerate_walls(*case):
        witnesses = set(map(tuple, rec["destabilizers"]))
        for cr, cd, cn in witnesses:
            er, ed, en = v.r - cr, v.d - cd, v.n - cn
            if abs(er) <= rank_bound and (er or ed >= 1 and gcd(ed, en) == 1):
                assert (er, ed, en) in witnesses, (rec["line"], (cr, cd, cn))


# ---------------------------------------------------------------------------
# chamber oracle: each report of `chamber_decomposition` is checked against
# its wall lines alone, in plain Fraction geometry (no `walls` internals)

#: the keys of a chamber record, in the order the golden digest hashes them
CHAMBER_KEYS = ["index", "kind", "bounds", "meets_window", "sample", "region"]


def _rational(text):
    """The Fraction a text stands for; only the text `str` of that
    Fraction writes is accepted."""
    assert type(text) is str and str(F(text)) == text, text
    return F(text)


def _point(pair):
    assert type(pair) is list and len(pair) == 2, pair
    return PlanePoint(_rational(pair[0]), _rational(pair[1]))


def _decoded(rep):
    """A chamber report with its records read back: texts as Fractions,
    regions as RegionVerdicts, sector bounds as pairs of integer tuples and
    strip bounds as tuples of Fractions and Nones."""
    chambers = []
    for rec in rep.chambers:
        assert list(rec) == CHAMBER_KEYS, rec
        assert type(rec["index"]) is int and type(rec["meets_window"]) is bool
        bounds = rec["bounds"]
        assert type(bounds) is list, rec
        if rec["kind"] == "sector":
            bounds = tuple(tuple(u) for u in bounds)
            assert all(len(u) == 2 and all(type(x) is int for x in u)
                       for u in bounds), rec
        else:
            bounds = tuple(None if t is None else _rational(t)
                           for t in bounds)
        region = rec["region"]
        chambers.append(SimpleNamespace(
            index=rec["index"], kind=rec["kind"], bounds=bounds,
            meets_window=rec["meets_window"], sample=_point(rec["sample"]),
            region=None if region is None else RegionVerdict(region)))
    center = None if rep.center is None else _point(rep.center)
    return SimpleNamespace(owner=rep.owner, kind=rep.kind, center=center,
                           chambers=chambers)


def _halfplanes_of_window(win):
    """The open window as half-planes (a, c, e): a*b + c*w > e."""
    return [(1, 0, win.b_min), (-1, 0, -win.b_max),
            (0, 1, win.w_min), (0, -1, -win.w_max)]


def _halfplanes_of_chamber(rep, ch, prim):
    """The open chamber: a wedge left of its first ray and right of its
    second (one half-plane when the second ray is the first reversed), or
    the strip t_lo < prim . p < t_hi."""
    if ch.kind == "sector":
        (u0, u1), (x0, x1) = ch.bounds
        cb, cw = rep.center.b, rep.center.w
        return [(-u1, u0, -u1 * cb + u0 * cw), (x1, -x0, x1 * cb - x0 * cw)]
    out = []
    t_lo, t_hi = ch.bounds
    if t_lo is not None:
        out.append((prim[0], prim[1], t_lo))
    if t_hi is not None:
        out.append((-prim[0], -prim[1], -t_hi))
    return out


def _strictly_inside(halfplanes, p):
    return all(a * p.b + c * p.w > e for a, c, e in halfplanes)


def _open_region_meets(halfplanes) -> bool:
    """Whether the bounded open polygon {a*b + c*w > e for all rows} is
    nonempty: its closure is the hull of the pairwise crossings of the
    boundary lines that satisfy every closed row, and the open polygon is
    nonempty exactly when their average satisfies every strict row."""
    rows = []  # each row times the denominator of its e
    for a, c, e in halfplanes:
        e = F(e)
        rows.append((a * e.denominator, c * e.denominator, e.numerator))
    vertices = set()
    for i, (a1, c1, e1) in enumerate(rows):
        for a2, c2, e2 in rows[i + 1:]:
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            # the crossing (bn/det, wn/det) by Cramer's rule, det > 0
            bn, wn = e1 * c2 - e2 * c1, a1 * e2 - a2 * e1
            if det < 0:
                bn, wn, det = -bn, -wn, -det
            if all(a * bn + c * wn >= e * det for a, c, e in rows):
                vertices.add(PlanePoint(F(bn, det), F(wn, det)))
    if not vertices:
        return False
    mean = PlanePoint(sum(p.b for p in vertices) / len(vertices),
                      sum(p.w for p in vertices) / len(vertices))
    return _strictly_inside(halfplanes, mean)


def _check_chamber_report(rep, v, walls, win, model):
    rep = _decoded(rep)
    lines = list(dict.fromkeys(_normalized(*w["line"]) for w in walls))
    chambers = rep.chambers
    assert rep.owner == v
    assert [ch.index for ch in chambers] == list(range(len(chambers)))
    for ch in chambers:
        expected = None if model is None else region_uc(ch.sample.as_tuple(),
                                                        model)
        assert ch.region == expected
    if not lines:
        assert rep.kind == "window" and len(chambers) == 1
        ch = chambers[0]
        assert ch.meets_window
        assert ch.sample == PlanePoint((win.b_min + win.b_max) / 2,
                                       (win.w_min + win.w_max) / 2)
        return
    prim = None
    if v.r != 0:
        assert rep.kind == "pencil"
        assert rep.center == PlanePoint(*project(v))
        assert len(chambers) == 2 * len(lines)
        rays = set()
        for line in lines:
            A, B, C = line
            assert A * rep.center.b + B * rep.center.w == C
            g = gcd(A, B)
            rays |= {(B // g, -A // g), (-B // g, A // g)}
        for i, ch in enumerate(chambers):
            u, u2 = ch.bounds
            assert ch.kind == "sector" and u in rays and u2 in rays
            assert chambers[(i + 1) % len(chambers)].bounds[0] == u2
            # no ray of any line runs strictly inside the wedge
            for d in rays:
                assert not (u[0] * d[1] - u[1] * d[0] > 0
                            and d[0] * u2[1] - d[1] * u2[0] > 0), (u, d, u2)
        neighbours = [(i, (i + 1) % len(chambers))
                      for i in range(len(chambers))]
    else:
        assert rep.kind == "strips" and rep.center is None
        assert len(chambers) == len(lines) + 1
        A, B, _ = lines[0]
        g = gcd(A, B)
        prim = (A // g, B // g)
        ts = sorted(F(C, gcd(A, B)) for A, B, C in lines)
        assert [ch.bounds for ch in chambers] == list(
            zip([None] + ts, ts + [None]))
        neighbours = [(i, i + 1) for i in range(len(chambers) - 1)]
    open_window = _halfplanes_of_window(win)
    signs = []
    for ch in chambers:
        cell = _halfplanes_of_chamber(rep, ch, prim)
        assert _strictly_inside(cell, ch.sample), ch
        assert ch.meets_window == _open_region_meets(cell + open_window), ch
        if ch.meets_window:
            assert _strictly_inside(open_window, ch.sample), ch
        # the sign of A*b + B*w - C at the sample, in integers
        (bn, bd), (wn, wd) = (ch.sample.b.as_integer_ratio(),
                              ch.sample.w.as_integer_ratio())
        values = [A * bn * wd + B * wn * bd - C * bd * wd
                  for A, B, C in lines]
        assert 0 not in values
        signs.append(tuple(x > 0 for x in values))
    assert len(set(signs)) == len(signs)
    for i, j in neighbours:
        assert sum(a != b for a, b in zip(signs[i], signs[j])) == 1


#: the windows that the oracle cuts, as offsets from the projection of v
CHAMBER_OFFSETS = [
    ("inside", (-1, 2, F(-1, 2), F(3, 2))),
    ("outside", (1, 3, 1, 2)),
    ("bottom-edge", (-1, 1, 0, 2)),
    ("right-edge", (-2, 0, -1, F(1, 3))),
    ("corner", (0, 2, 0, 1)),
]
#: rank zero has no projection, so its windows are fixed (and two more
#: touch its first two walls)
STRIP_WINDOWS = [Window(-1, 2, F(1, 3), 3), Window(0, 1, 0, 1),
                 Window(F(-5, 2), F(-1, 2), 2, 5), Window(3, 9, -2, -1),
                 Window(-4, 4, F(-1, 2), 7)]


def _window_touching(line):
    """A unit window with a corner (or, for a vertical line, an edge) on
    the line A*b + B*w = C, given as (A, B, C), and the rest on its
    positive side."""
    A, B, C = line
    b0, w0 = (F(0), F(C, B)) if B else (F(C, A), F(0))
    b1, w1 = b0 + (1 if A >= 0 else -1), w0 + (1 if B >= 0 else -1)
    return Window(min(b0, b1), max(b0, b1), min(w0, w1), max(w0, w1))


CHAMBER_MODELS = {
    "general-2": lambda: make_model("general", 2),
    "mercat-5": lambda: make_model("mercat", 5),
    "elliptic-1": lambda: make_model("elliptic", 1),
    "user-3": _user_model_lower_spikes,
}


@functools.lru_cache(maxsize=None)
def _chamber_cases(name):
    """(v, walls, window, model, report) over ranks -2..3: all walls in
    the first window, about six spread-out walls in every window of
    CHAMBER_OFFSETS (or STRIP_WINDOWS and windows touching the first two
    walls), and the first wall alone."""
    model = CHAMBER_MODELS[name]()
    g = model.genus.g
    cases = []
    for r in range(-2, 4):
        for d, n in ((3, 1), (-1, 2)):
            v = NumClass(r, d, n)
            walls = enumerate_walls(v, g, Window(-3, 3, F(-1, 2), 5), 1,
                                    model)
            spread = walls[::max(1, len(walls) // 6)]
            if r == 0:
                windows = STRIP_WINDOWS + [_window_touching(w["line"])
                                           for w in walls[:2]]
            else:
                b, w = project(v)
                windows = [Window(b + b0, b + b1, w + w0, w + w1)
                           for _, (b0, b1, w0, w1) in CHAMBER_OFFSETS]
            runs = [(walls, windows[0])] + [(spread, win) for win in windows]
            runs += [(walls[:1], windows[0]), (walls[:1], windows[-1])]
            for ws, win in runs:
                rep = chamber_decomposition(v, ws, win, model)
                cases.append((v, ws, win, model, rep))
    return cases


@pytest.mark.parametrize("name", list(CHAMBER_MODELS))
def test_chamber_oracle(name):
    kinds = set()
    single = 0
    for v, walls, win, model, rep in _chamber_cases(name):
        _check_chamber_report(rep, v, walls, win, model)
        # the report writer writes what `dumps` writes
        assert dumps_chamber_report(rep) == dumps(chamber_report_to_json(rep))
        kinds.add(rep.kind)
        single += len({tuple(w["line"]) for w in walls}) == 1
    assert {"pencil", "strips"} <= kinds and single > 0


#: sha256 over the JSON of the 392 reports of _chamber_cases, model by
#: model, taken before the chamber clipper moved to integers
GOLDEN_CHAMBERS_SHA256 = (
    "39dd0e566580087fa315fa942ecfaa8506ba74d15dad0b33493ce16063ba975e")


def test_chamber_oracle_reports_golden_digest():
    h = hashlib.sha256()
    for name in CHAMBER_MODELS:
        for *_, rep in _chamber_cases(name):
            h.update(json.dumps(chamber_report_to_json(rep)).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_CHAMBERS_SHA256


@pytest.mark.parametrize("owner, lines, error", [
    # 1*b + 1*w = 100 misses (3/2, 1/2); it used to be read as the line of
    # its direction through that point
    ((2, 3, 1), [(1, 1, 100)], MixedOwnership),
    # every wall of (0, 1, 0) runs along (1, 0); b + w = 3 used to bound
    # two strips
    ((0, 1, 0), [(1, 1, 3)], MixedOwnership),
    # the zero class has no walls; b = 1 used to bound two strips
    ((0, 0, 0), [(1, 0, 1)], MixedOwnership),
    # lines that are not normalized: (0, 0, 5) used to end in a
    # ZeroDivisionError, (0, 0, 0) to give a pencil with the ray (1, 0),
    # and a multiple of a line to give two zero-width sectors
    ((0, 1, 0), [(0, 0, 5)], DomainError),
    ((2, 3, 1), [(0, 0, 0)], DomainError),
    ((2, 3, 1), [(16, 4, 26), (8, 2, 13)], DomainError),
    ((0, 1, 0), [(0, -1, 3)], DomainError),
], ids=["off-the-projection", "rank-zero-off-the-class", "zero-class",
        "zero-normal", "zero-line", "multiple", "negative-normal"])
def test_chambers_refuse_what_is_not_a_wall(owner, lines, error):
    records = [{"owner": list(owner), "line": list(x)} for x in lines]
    for model in (None, make_model("general", 2)):
        with pytest.raises(error):
            chamber_decomposition(NumClass(*owner), records, STD_WINDOW,
                                  model)


# ---------------------------------------------------------------------------
# the pencil sectors against a reference: the window clipped to each closed
# sector, as `chamber_decomposition` once computed them


def _clip_polygon(poly, normal):
    """Keep the part of a convex polygon with normal . p >= 0, each vertex
    an integer triple (x, y, z) with z > 0 standing for (x/z, y/z)."""
    nx, ny = normal
    fs = [nx * p[0] + ny * p[1] for p in poly]
    out = []
    k = len(poly)
    for i in range(k):
        p, fp = poly[i], fs[i]
        if fp >= 0:
            out.append(p)
        fq = fs[i + 1 - k]  # the next vertex, wrapping to the first
        if (fp > 0 > fq) or (fp < 0 < fq):
            # fp*q - fq*p lies on the line, and with fp > 0 its z is > 0
            q = poly[i + 1 - k]
            if fp < 0:
                fp, fq = -fp, -fq
            out.append((fp * q[0] - fq * p[0], fp * q[1] - fq * p[1],
                        fp * q[2] - fq * p[2]))
    return out


def _reference_sectors(v, lines, win, model):
    """The sector records of v for distinct lines through its projection:
    each sector's sample is the vertex average of the window clipped to
    the closed sector when that has nonzero area, else the centre plus an
    inner direction."""
    from cswalls.walls import _ray_sort_key

    r, d, n = v.as_tuple()
    rays = []
    for A, B, _ in lines:
        g = gcd(A, B)
        rays += [(B // g, -A // g), (-B // g, A // g)]
    rays.sort(key=_ray_sort_key)
    s = 1 if r > 0 else -1
    corners = []
    for b, w in _corners(win):
        corners.append((s * (b.numerator * r - d * b.denominator)
                        * w.denominator,
                        s * (w.numerator * r - n * w.denominator)
                        * b.denominator,
                        abs(r) * b.denominator * w.denominator))
    out = []
    k = len(rays)
    for i in range(k):
        u, u2 = rays[i], rays[(i + 1) % k]
        poly = corners
        for normal in ((-u[1], u[0]), (u2[1], -u2[0])):
            poly = _clip_polygon(poly, normal)
        meets = any(det3((poly[0], poly[1], p)) for p in poly[2:])
        if meets:
            sx = sum(F(x, z) for x, _, z in poly) / len(poly)
            sy = sum(F(y, z) for _, y, z in poly) / len(poly)
        else:
            sx, sy = ((-u[1], u[0]) if k == 2
                      else (u[0] + u2[0], u[1] + u2[1]))
        b, w = F(d, r) + sx, F(n, r) + sy
        out.append({
            "index": i, "kind": "sector", "bounds": [list(u), list(u2)],
            "meets_window": meets, "sample": [str(b), str(w)],
            "region": None if model is None else region_uc((b, w),
                                                           model).value})
    return out


#: window edges as offsets from the projection: 0 puts the projection on
#: that edge
OFFSETS = st.fractions(-3, 3, max_denominator=4)


@st.composite
def pencil_cases(draw):
    """(v, records, window, model): lines (A*r, B*r, A*d + B*n) through the
    projection of v, normalized, horizontal ones included; a window with
    the projection inside, outside, on an edge or on a corner."""
    v = NumClass(draw(st.integers(-3, 3).filter(bool)),
                 draw(st.integers(-5, 5)), draw(st.integers(-5, 5)))
    r, d, n = v.as_tuple()
    normals = draw(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
        min_size=1, max_size=5))
    lines = dict.fromkeys(_normalized(A * r, B * r, A * d + B * n)
                          for A, B in normals)
    b0, b1 = sorted(draw(st.lists(OFFSETS, min_size=2, max_size=2,
                                  unique=True)))
    w0, w1 = sorted(draw(st.lists(OFFSETS, min_size=2, max_size=2,
                                  unique=True)))
    b, w = project(v)
    win = Window(b + b0, b + b1, w + w0, w + w1)
    model = draw(st.sampled_from([None, make_model("general", 2)]))
    return v, [{"owner": [r, d, n], "line": list(x)} for x in lines], win, model


@settings(max_examples=400, deadline=None)
@given(pencil_cases())
# one line: two half-planes, the projection on the window's edge
@example((NumClass(2, 3, 1), [{"owner": [2, 3, 1], "line": [1, 1, 2]}],
          Window(F(3, 2), 3, -1, 2), None))
# a ray through the window's corner (3, 2), the projection outside
@example((NumClass(1, 0, 0), [{"owner": [1, 0, 0], "line": [2, -3, 0]},
                              {"owner": [1, 0, 0], "line": [0, 1, 0]}],
          Window(1, 3, 1, 2), None))
def test_pencil_sectors_match_the_clipped_window(case):
    v, records, win, model = case
    lines = [tuple(rec["line"]) for rec in records]
    rep = chamber_decomposition(v, records, win, model)
    assert rep.kind == "pencil"
    assert rep.chambers == _reference_sectors(v, lines, win, model)


# ---------------------------------------------------------------------------
# the rank-zero strips against a reference: the Fraction geometry that
# `chamber_decomposition` once computed them with


def _reference_strips(lines, win, model):
    """The strip records for distinct normalized parallel lines, ordered by
    intercept along their primitive normal: a strip that meets the window
    is sampled on the diagonal from its lowest corner in the normal (the
    least (b, w) at that value) to its highest (the greatest), at the
    middle of its overlap with the window; any other on its middle line
    (one unit beyond an outermost line), at the point nearest the window
    centre."""
    g = gcd(*lines[0][:2])
    prim = (lines[0][0] // g, lines[0][1] // g)
    intercepts = sorted({F(C, gcd(A, B)) for A, B, C in lines})
    corner_vals = [(prim[0] * b + prim[1] * w, (b, w))
                   for b, w in _corners(win)]
    l_min, c_min = min(corner_vals)
    l_max, c_max = max(corner_vals)
    bounds_seq = [None] + intercepts + [None]
    out = []
    for i in range(len(intercepts) + 1):
        t_lo, t_hi = bounds_seq[i], bounds_seq[i + 1]
        o_lo = l_min if t_lo is None else max(t_lo, l_min)
        o_hi = l_max if t_hi is None else min(t_hi, l_max)
        meets = o_lo < o_hi
        if meets:
            lam = ((o_lo + o_hi) / 2 - l_min) / (l_max - l_min)
            b = c_min[0] + lam * (c_max[0] - c_min[0])
            w = c_min[1] + lam * (c_max[1] - c_min[1])
        else:
            t_star = (intercepts[0] - 1 if t_lo is None
                      else intercepts[-1] + 1 if t_hi is None
                      else (t_lo + t_hi) / 2)
            cb = (win.b_min + win.b_max) / 2
            cw = (win.w_min + win.w_max) / 2
            mu = ((t_star - (prim[0] * cb + prim[1] * cw))
                  / (prim[0] ** 2 + prim[1] ** 2))
            b, w = cb + mu * prim[0], cw + mu * prim[1]
        out.append({
            "index": i, "kind": "strip",
            "bounds": [None if t is None else str(t) for t in (t_lo, t_hi)],
            "meets_window": meets, "sample": [str(b), str(w)],
            "region": None if model is None else region_uc((b, w),
                                                           model).value})
    return out


#: window ends with denominators up to 7
STRIP_ENDS = st.fractions(-4, 4, max_denominator=7)


@st.composite
def strip_cases(draw):
    """(v, records, window, model) at rank zero: one to six normalized
    walls (k*p, C) of v, p the primitive normal of (d, n), some of them
    beyond either side of a window with denominators up to 7."""
    d, n = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5))
                .filter(any))
    s = (1 if n > 0 or (n == 0 and d < 0) else -1) * gcd(d, n)
    p = (n // s, -d // s)
    records = []
    for _ in range(draw(st.integers(1, 6))):
        C, k = draw(st.integers(-60, 60)), draw(st.integers(1, 4))
        k, C = k // gcd(k, C), C // gcd(k, C)
        records.append({"owner": [0, d, n], "line": [k * p[0], k * p[1], C]})
    b0, b1 = sorted(draw(st.lists(STRIP_ENDS, min_size=2, max_size=2,
                                  unique=True)))
    w0, w1 = sorted(draw(st.lists(STRIP_ENDS, min_size=2, max_size=2,
                                  unique=True)))
    model = draw(st.sampled_from([None, make_model("general", 2)]))
    return NumClass(0, d, n), records, Window(b0, b1, w0, w1), model


@settings(max_examples=400, deadline=None)
@given(strip_cases())
# a horizontal family and a vertical one: two corners tie at the lowest
# and at the highest value, and the tie-break picks the sample's diagonal
@example((NumClass(0, 1, 0), [{"owner": [0, 1, 0], "line": [0, 1, 1]},
                              {"owner": [0, 1, 0], "line": [0, 2, 9]}],
          Window(F(-1, 2), 3, F(1, 3), 7), None))
@example((NumClass(0, 0, -2), [{"owner": [0, 0, -2], "line": [1, 0, -1]},
                               {"owner": [0, 0, -2], "line": [3, 0, 20]}],
          Window(-2, F(5, 7), -1, 1), make_model("general", 2)))
def test_strips_match_the_fraction_reference(case):
    v, records, win, model = case
    lines = list(dict.fromkeys(tuple(rec["line"]) for rec in records))
    rep = chamber_decomposition(v, records, win, model)
    assert rep.kind == "strips"
    assert rep.chambers == _reference_strips(lines, win, model)
