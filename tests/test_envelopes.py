import hashlib
import json
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cswalls.envelopes import (
    BNModel,
    PLFunction,
    RegionVerdict,
    general_upper,
    lower_envelope,
    make_model,
    mercat_upper,
    model_from_json,
    pl_equal,
    region_uc,
    region_uf,
)
from cswalls.errors import DomainError, GenusOutOfRange, InvalidEnvelope
from cswalls.jsonio import model_to_json
from cswalls.lattice import Genus


def test_general_upper_examples():
    assert general_upper(-1, 3) == 0
    assert general_upper(5, 3) == 3
    assert general_upper(2, 3) == 2
    assert general_upper(0, 1) == 1  # collapsed interval at g = 1
    assert general_upper(F(1, 3), 1) == F(1, 3)


def test_lower_envelope_examples():
    assert lower_envelope(-5, 2) == 0
    assert lower_envelope(9, 3) == 7
    assert lower_envelope(1, 3) == 0


def test_mercat_examples():
    assert mercat_upper(F(8, 3), 5) == F(4, 3)
    assert mercat_upper(4, 5) == 2
    assert mercat_upper(12, 5) == 8
    with pytest.raises(GenusOutOfRange):
        mercat_upper(1, 3)
    with pytest.raises(DomainError):
        mercat_upper(0, 5)


def test_mercat_breakpoint_continuity_and_convexity():
    for g in range(4, 33):
        b1 = 2 + F(2, g - 2)
        b2 = 2 * g - 4 - F(2, g - 2)
        b3 = F(3 * g - 3)
        eps = F(1, 10**6)
        # piece limits agree at the printed breakpoints, exactly
        assert mercat_upper(b1, g) == F(g - 1, g - 2)
        assert mercat_upper(b1 - eps, g) == F(1, g) * (b1 - eps) + 1 - F(1, g)
        assert mercat_upper(b2, g) == F((g - 1) * (g - 3), g - 2)
        if b1 < b2:  # at g = 4 the middle piece is empty
            assert mercat_upper(b2 - eps, g) == (b2 - eps) / 2
        assert mercat_upper(b3, g) == 2 * g - 2
        assert mercat_upper(b3 - eps, g) == (1 - F(1, g)) * (b3 - eps) + 4 - g - F(3, g)
        # slopes nondecreasing
        slopes = [F(1, g), F(1, 2), 1 - F(1, g), F(1)]
        assert slopes == sorted(slopes)


def test_model_examples():
    m2 = make_model("general", 2)
    assert m2.upper(1) == F(3, 2)
    assert m2.lower(1) == 0
    assert not m2.exact
    m5 = make_model("mercat", 5)
    assert m5.upper(4) == 2
    ell = make_model("elliptic", 1)
    assert ell.exact and ell.upper(3) == 3 and ell.lower(3) == 3
    assert ell.upper(0) == 1
    with pytest.raises(GenusOutOfRange):
        make_model("mercat", 3)
    with pytest.raises(GenusOutOfRange):
        make_model("elliptic", 2)
    with pytest.raises(DomainError):
        make_model("nope", 2)


def test_builtin_models_are_built_and_checked_once(monkeypatch):
    for kind, g in (("general", 2), ("mercat", 5), ("elliptic", 1)):
        assert make_model(kind, g) is make_model(kind, g)
    assert make_model("general", Genus(2)) == make_model("general", 2)
    checks = []
    check = BNModel.__post_init__
    monkeypatch.setattr(BNModel, "__post_init__",
                        lambda self: checks.append(check(self)))
    for _ in range(3):  # a genus no other test builds, so not cached yet
        make_model("general", 1009)
    assert len(checks) == 1
    base = make_model("general", 1009)
    users = [make_model("user", 1009, (base.lower, base.upper, False))
             for _ in range(2)]
    assert len(checks) == 3 and users[0] is not users[1]
    # errors are not cached
    for _ in range(2):
        with pytest.raises(GenusOutOfRange):
            make_model("mercat", 3)
        with pytest.raises(GenusOutOfRange):
            make_model("elliptic", 2)
        with pytest.raises(DomainError):
            make_model("nope", 2)


#: sha256 of the model document a cache key stores, per built-in model
GOLDEN_MODEL_KEYS = {
    ("general", 1):
        "33924a2b6049f070ee5ca4e8662bcedc4e3b73a8016a44a5aacc7a1bd06337b9",
    ("general", 2):
        "72a649c129195651501fb58b83391be516211dd69ca0a86120fa472bd184d954",
    ("general", 3):
        "9b8582f20bb28ae02b5e63eefc1e20257b7280815a831d700813671497d4ce2c",
    ("general", 4):
        "519c3cfb6dfa0902a43dce1cffc201799b765bae7ca6c152cc636e8e344f00d3",
    ("general", 5):
        "b099bdd46910d937c011f9dc5521632a3ce95d54663f3a0c7501ea31f2fb04f7",
    ("general", 6):
        "f83c7722e153346f4e55eac30de4084d4ed4ec9b34320d06206e7482a9ae32b5",
    ("general", 7):
        "c1ae4160c386d437ac50334600d654ad035f749538eb2f72b8f552b189bcc437",
    ("general", 8):
        "edfba78b8d244337006ac309ccefa5046c9f84d162a03b5cd6db052fbbfa1bc8",
    ("mercat", 4):
        "d6e691d23bb7399aa89170c96f218a02909d60b1cbfb218bda4cb0a2bf69b84b",
    ("mercat", 5):
        "a254cb84cd5dbce806fcf592908243eef7178ccb17edb9c64ab1f867d63dedae",
    ("mercat", 6):
        "477b9f2cd111edffe11d6150ebd6306536860cc6315a30c8d052f8455a1ae3e8",
    ("mercat", 7):
        "7fcb853b1ecf192c34545ea0df776ae98c1823789ccdcfefd55c58ed32e9cf7c",
    ("mercat", 8):
        "5d98836c7f018161cc9dc4db10e5bdc97fe43092f6fd27fd9611125c96226ffa",
    ("mercat", 9):
        "5bb152e29cf9c003d8dd77286fbec943b0c31d6073df87e8f5908fc314d1997f",
    ("mercat", 10):
        "b0c5988e69c78ca14a0838a6339b144843f05153292889d9e9428dcf195e4d79",
    ("mercat", 11):
        "993ba8949fa794b04f752387c3f19bccbfb3f7fc4f2ca2a0d6de1261d66f51d4",
    ("elliptic", 1):
        "a5472b710817bd9477e954f9a7bf475be1c3d7c0c1c70a1a1cd97535448b1fdf",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_MODEL_KEYS))
def test_model_cache_key_text_golden(case):
    # building the model also runs its checks, for every genus listed
    model = make_model(*case)
    text = json.dumps(model_to_json(model), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MODEL_KEYS[case]
    # the text a cache key holds, built once per model object and then
    # reused: the same bytes both times
    assert model.key_text == text
    assert make_model(*case).key_text is model.key_text


# Closed forms of the three envelope bounds, written independently of the
# PLFunction tables that `make_model` and the public evaluators use.
def _general_upper_ref(x, g):
    if x < 0:
        return F(0)
    if x > 2 * g - 2:
        return x + 1 - g
    if g == 1:
        return F(1)  # interval collapses to {0}
    return x / 2 + 1


def _lower_ref(x, g):
    if x < 0:
        return F(0)
    return max(F(0), x + 1 - g)


def _mercat_ref(x, g):
    """The four-piece Mercat bound f(b) for b > 0, g >= 4."""
    b1 = 2 + F(2, g - 2)
    b2 = 2 * g - 4 - F(2, g - 2)
    if x < b1:
        return F(1, g) * x + 1 - F(1, g)
    if x < b2:
        return x / 2
    if x < 3 * g - 3:
        return (1 - F(1, g)) * x + 4 - g - F(3, g)
    return x + 1 - g


def test_model_envelopes_match_closed_forms():
    rng = random.Random(5)
    for g in (1, 2, 3, 5, 9):
        m = make_model("general", g)
        xs = [F(rng.randint(-400, 400), rng.randint(1, 40))
              for _ in range(200)]
        for x in xs + [F(0), F(2 * g - 2)]:
            assert m.upper(x) == general_upper(x, g) == _general_upper_ref(x, g)
            assert m.lower(x) == lower_envelope(x, g) == _lower_ref(x, g)


def test_mercat_model_is_pointwise_min():
    rng = random.Random(6)
    for g in (4, 5, 8, 12):
        m = make_model("mercat", g)
        top = F(2 * g - 2)
        xs = [F(rng.randint(-100, 100 * g), rng.randint(1, 24))
              for _ in range(300)]
        for x in xs + [top, 2 + F(2, g - 2), 2 * g - 4 - F(2, g - 2)]:
            expected = _general_upper_ref(x, g)
            if x > 0:
                assert mercat_upper(x, g) == _mercat_ref(x, g)
                expected = min(expected, _mercat_ref(x, g))
            assert m.upper(x) == expected
        assert m.upper(0) == 1  # Mercat needs b > 0; the value at 0 stays


def test_forced_tails_all_models():
    for name, g in (("general", 1), ("general", 2), ("general", 6),
                    ("mercat", 5), ("elliptic", 1)):
        m = make_model(name, g)
        for x in (F(-1), F(-7, 2), F(-100)):
            assert m.lower(x) == 0 and m.upper(x) == 0
        for x in (F(2 * g - 2) + F(1, 7), F(2 * g - 2) + 5, F(10 * g)):
            assert m.lower(x) == x + 1 - g
            assert m.upper(x) == x + 1 - g


def test_envelope_sandwich_everywhere():
    for name, g in (("general", 1), ("general", 4), ("mercat", 7),
                    ("elliptic", 1)):
        m = make_model(name, g)
        xs = sorted(
            set(m.lower.breakpoints) | set(m.upper.breakpoints)
            | {x for x, _ in m.upper.point_values}
        )
        probes = list(xs) + [xs[0] - 1, xs[-1] + 1]
        probes += [F(a + b, 2) for a, b in zip(xs, xs[1:])]
        for x in probes:
            assert m.lower(x) <= m.upper(x)


def test_region_uc_examples():
    assert region_uc((F(-1), F(1, 10)), make_model("general", 4)) is RegionVerdict.IN
    assert region_uc((F(9), F(3)), make_model("general", 3)) is RegionVerdict.OUT
    assert region_uc((F(2), F(3, 2)), make_model("general", 3)) is RegionVerdict.UNKNOWN


def test_region_uc_monotone_in_w_and_exact_total():
    rng = random.Random(9)
    ell = make_model("elliptic", 1)
    gen = make_model("general", 3)
    for _ in range(200):
        b = F(rng.randint(-60, 60), rng.randint(1, 9))
        w = F(rng.randint(-60, 60), rng.randint(1, 9))
        for m in (ell, gen):
            verdict = region_uc((b, w), m)
            if verdict is RegionVerdict.IN:
                assert region_uc((b, w + 1), m) is RegionVerdict.IN
                assert region_uc((b, w + F(1, 999)), m) is RegionVerdict.IN
        assert region_uc((b, w), ell) is not RegionVerdict.UNKNOWN


def test_region_uf_examples():
    assert region_uf((1, 2), 5) is True
    assert region_uf((-1, 10), 5) is False
    assert region_uf((4, 1), 5) is False
    with pytest.raises(GenusOutOfRange):
        region_uf((1, 1), 3)


def test_plfunction_validation():
    with pytest.raises(InvalidEnvelope):
        PLFunction((), F(0), F(0))
    with pytest.raises(InvalidEnvelope):
        PLFunction(((F(1), F(0), F(0)), (F(1), F(1), F(0))), F(0), F(0))
    PLFunction(((F(0), F(1), F(5)),), F(0), F(0))  # a jump at x_1 is allowed


def test_plfunction_breakpoint_value_is_left_closed():
    m = make_model("general", 3)
    # value at the jump point 2g-2 = 4 is the Clifford value g
    assert m.upper(4) == 3
    assert m.upper(F(4) + F(1, 10**9)) == F(4) + F(1, 10**9) + 1 - 3


def _piece_value(f, x, bisect):
    """The bisect lookup `PLFunction.__call__` used before `PLFunction.at`,
    kept as the reference, without its point overrides: the right limit
    at x with `bisect_right` (the value of the left-closed pieces), the
    left limit with `bisect_left`."""
    i = bisect(f.breakpoints, x) - 1
    if i < 0:
        return f.left_value + f.left_slope * (x - f.pieces[0][0])
    xi, si, vi = f.pieces[i]
    return vi + si * (x - xi)


def _bisect_call(f, x):
    for xo, vo in f.point_values:
        if xo == x:
            return vo
    return _piece_value(f, x, bisect_right)


_SMALL = st.fractions(min_value=-12, max_value=12, max_denominator=8)


@st.composite
def _pl_functions(draw):
    """Upper and lower envelopes of the built-in models, or a PLFunction
    with free values (so jumps up and down) and point overrides."""
    kind = draw(st.sampled_from(["general", "mercat", "elliptic", "user"]))
    if kind == "general":
        m = make_model(kind, draw(st.integers(1, 8)))
    elif kind == "mercat":
        m = make_model(kind, draw(st.integers(4, 11)))
    elif kind == "elliptic":
        m = make_model(kind, 1)
    else:
        xs = sorted(draw(st.sets(_SMALL, min_size=1, max_size=5)))
        pieces = tuple((x, draw(_SMALL), draw(_SMALL)) for x in xs)
        overrides = draw(st.lists(
            st.tuples(st.one_of(st.sampled_from(xs), _SMALL), _SMALL),
            max_size=3, unique_by=lambda p: p[0]))
        return PLFunction(pieces, draw(_SMALL), draw(_SMALL),
                          tuple(overrides))
    return m.upper if draw(st.booleans()) else m.lower


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pl_at_matches_the_bisect_lookup(data):
    f = data.draw(_pl_functions())
    knots = list(f.breakpoints) + [x for x, _ in f.point_values]
    x = data.draw(st.one_of(
        st.sampled_from(knots), _SMALL,
        st.integers(1, 50).map(lambda k: f.pieces[0][0] - F(k, 7))))
    m, parts, _, _ = f.scaled
    *nums, j = f.at(x.numerator, x.denominator)
    value, left, right = (F(n, m * x.denominator) for n in nums)
    assert value == f(x) == _bisect_call(f, x)
    assert left == _piece_value(f, x, bisect_left)
    assert right == _piece_value(f, x, bisect_right)
    # part 0 is the left tail, which has no low end
    assert j == bisect_right([part[0] for part in parts[1:]], x * m)


def test_pl_at_at_a_downward_jump_and_an_override():
    f = PLFunction(((F(0), F(2), F(0)), (F(1), F(1), F(0))), F(0), F(0),
                   ((F(1), F(5)),))
    m = f.scaled[0]
    assert f.at(1, 1) == (5 * m, 2 * m, 0, 2)
    assert f.at(-3, 2) == (0, 0, 0, 0)  # the left tail
    assert f(F(9, 10)) == F(9, 5) and f(1) == 5


BUILT_IN_MODELS = ([make_model("general", g) for g in range(1, 9)]
                   + [make_model("mercat", g) for g in range(4, 12)]
                   + [make_model("elliptic", 1)])


@pytest.mark.parametrize("model", BUILT_IN_MODELS,
                         ids=lambda m: f"{m.name}-{m.genus.g}")
def test_certificate_rows_are_subsets_of_every_row(model):
    for f in (model.upper, model.lower):
        m, parts, knots, points = f.scaled
        (every_knots, every_parts), table = f.certificate_rows
        values = [(x, s * x + i * m) for lo, hi, s, i in parts
                  for x in (lo, hi) if x is not None]
        values += [(x, v * m) for x, v in points]
        assert dict(every_knots) == {
            x: max(u for y, u in values if y == x) for x, _ in values}
        assert every_knots == knots and every_parts == parts
        assert len(table) == len(parts)
        for rows in table:
            assert rows == () or (set(rows[0]) <= set(every_knots)
                                  and set(rows[1]) <= set(parts) and
                                  any(rows))


def _row_counts(f):
    return [len(rows[0]) + len(rows[1]) if rows else 0
            for rows in f.certificate_rows[1]]


def test_certificate_rows_of_the_built_in_upper_envelopes():
    # the left tail, the Clifford piece [0, 2g-2) and the forced tail
    for g in range(2, 9):
        upper = make_model("general", g).upper
        m, parts, _, _ = upper.scaled
        assert parts[1][:2] == (0, (2 * g - 2) * m)
        assert _row_counts(upper) == [2, 0, 2]
    assert _row_counts(make_model("mercat", 5).upper) == [2, 1, 0, 0, 2]


def test_pl_equal():
    a = PLFunction(((F(0), F(1), F(0)),), F(0), F(0))
    b = PLFunction(((F(0), F(1), F(0)), (F(2), F(1), F(2))), F(0), F(0))
    assert pl_equal(a, b)
    c = PLFunction(((F(0), F(2), F(0)),), F(0), F(0))
    assert not pl_equal(a, c)


def test_user_model_json_roundtrip():
    doc = {
        "lower": [["-1", "0", "0"], ["0", "0", "0"], ["1", "1", "0"]],
        "upper": [["-1", "0", "0"], ["0", "1/2", "1"],
                  ["2", "1", "1"]],
        "exact": False,
    }
    m = model_from_json(doc, 2)
    assert m.name == "user"
    assert m.upper(F(1)) == F(3, 2)
    assert m.lower(F(3)) == 2


def test_user_model_rejections():
    # sandwich violation
    doc = {
        "lower": [["-1", "0", "0"], ["0", "1", "0"]],
        "upper": [["-1", "0", "0"], ["0", "1/2", "0"],
                  ["0", "1", "0"]],
        "exact": False,
    }
    with pytest.raises(InvalidEnvelope):
        model_from_json(doc, 1)
    # forced-tail violation: nonzero on x < 0
    doc2 = {
        "lower": [["-1", "0", "1"], ["0", "1", "0"]],
        "upper": [["-1", "0", "1"], ["0", "1", "1"]],
        "exact": False,
    }
    with pytest.raises(InvalidEnvelope):
        model_from_json(doc2, 1)
    # exact requires equal envelopes
    doc3 = {
        "lower": [["-1", "0", "0"], ["0", "1", "0"]],
        "upper": [["-1", "0", "0"], ["0", "1", "1"]],
        "exact": True,
    }
    with pytest.raises(InvalidEnvelope):
        model_from_json(doc3, 1)


def test_elliptic_oracle_riemann_roch():
    # Exact values certified by Riemann-Roch plus the classification of
    # semistable bundles on an elliptic curve: sup h0/rk at slope x equals
    # x for x > 0 (direct sums of stables of positive degree), 0 for x < 0,
    # and 1 at x = 0 (the trivial bundle).
    ell = make_model("elliptic", 1)
    rng = random.Random(12)
    for _ in range(100):
        d = rng.randint(1, 30)
        r = rng.randint(1, 10)
        x = F(d, r)
        assert ell.upper(x) == x
        assert ell.lower(-x) == 0
    assert ell.upper(0) == 1


def test_bn_model_requires_matching_invariants():
    lower = PLFunction(((F(0), F(1), F(0)),), F(0), F(0))
    upper = PLFunction(((F(0), F(1), F(0)),), F(0), F(0))
    BNModel(lower, upper, True, Genus(1), "ok")
    with pytest.raises(InvalidEnvelope):
        BNModel(lower, upper, True, Genus(2), "bad-tails")
