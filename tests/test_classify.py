import random
from fractions import Fraction as F

import pytest

from cswalls.charges import (
    ChargeData,
    ComplexRational,
    GLElement,
    PlanePoint,
    gl_act,
    type_b_triple,
)
from cswalls.classify import (
    GluingBranch,
    Membership,
    classify_regions,
    full_classification,
    in_ua,
    second_gluing_branch,
    ua_margin,
)
from cswalls.envelopes import RegionVerdict, make_model
from cswalls.errors import DomainError, ZeroCharge
from cswalls.jsonio import classification_to_json

ALL_FLAGS = frozenset({"stable_O0", "stable_pt", "stable_sheafO"})


def rng_element(rng):
    while True:
        entries = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
        try:
            return GLElement(*entries, rng.randint(-2, 2))
        except DomainError:
            continue


def test_in_ua_truth_table():
    assert in_ua((1, 3 / 5, 1 / 2)) is True
    assert in_ua((1, 1 / 2, 1 / 2)) is False  # phi3 < phi2 fails at equality
    assert in_ua((1, 8 / 5, 1 / 2)) is False  # phi2 < phi3 + 1 fails


def test_in_ua_boundary_tolerance():
    assert in_ua((1, 0.5 + 1e-12, 0.5), tol=1e-9) is False
    assert in_ua((1, 0.5 + 1e-6, 0.5), tol=1e-9) is True


def test_classification_uses_the_charge_data_tolerance():
    # the lifts match the charges' phases within 1e-3, and the UA chain
    # holds by 1e-6 only: not a margin that tolerance 1e-3 accepts
    i = ComplexRational(F(0), F(1))
    c = ChargeData(ComplexRational(F(-1), F(0)), i, i, (1.0, 0.5, 0.5 - 1e-6),
                   ALL_FLAGS, tol=1e-3)
    assert ua_margin(c.lifts) == pytest.approx(1e-6)
    m = make_model("general", 4)
    assert classify_regions(c, m).in_ua is Membership.NO
    assert full_classification(c, m).in_ua is Membership.NO


def test_classify_regions_type_b_example():
    m = make_model("general", 4)
    c = type_b_triple(PlanePoint(F(-2), F(3)), with_lifts=True,
                      flags=ALL_FLAGS)
    res = classify_regions(c, m)
    assert res.in_ub is Membership.YES
    assert res.type_b == (PlanePoint(F(-2), F(3)), RegionVerdict.IN)
    # the same data also lies in the first region (the loci overlap)
    assert res.in_ua is Membership.YES


def test_classify_regions_strictness_and_insufficiency():
    m = make_model("general", 4)
    # phi2 == phi1 == 1: z2 = -2 has phase 1 as well
    c = ChargeData(
        ComplexRational(F(-1), F(0)),
        ComplexRational(F(-2), F(0)),
        ComplexRational(F(3), F(2)),
        (1.0, 1.0, None),
        frozenset({"stable_O0", "stable_pt"}),
    )
    res = classify_regions(c, m)
    assert res.in_ub is Membership.NO
    assert res.in_ua is Membership.INSUFFICIENT
    assert res.type_b is None
    # no flags at all
    bare = type_b_triple(PlanePoint(F(-1), F(2)), with_lifts=True)
    res2 = classify_regions(bare, m)
    assert res2.in_ua is Membership.INSUFFICIENT
    assert res2.in_ub is Membership.INSUFFICIENT


def test_classify_regions_orientation_failure_gives_no():
    m = make_model("general", 2)
    c = ChargeData(
        ComplexRational(F(-1), F(0)),
        ComplexRational(F(0), F(-1)),  # frame determinant +1
        ComplexRational(F(1), F(1)),
        (1.0, -0.5, None),
        frozenset({"stable_O0", "stable_pt"}),
    )
    res = classify_regions(c, m)
    assert res.in_ub is Membership.NO
    assert any("WrongOrientation" in note for note in res.notes)


def test_classify_gl_invariance():
    rng = random.Random(71)
    m = make_model("general", 3)
    for _ in range(60):
        p = PlanePoint(
            F(rng.randint(-40, -1), rng.randint(1, 7)),
            F(rng.randint(1, 40), rng.randint(1, 7)),
        )
        c = type_b_triple(p, with_lifts=True, flags=ALL_FLAGS)
        base = classify_regions(c, m)
        acted = classify_regions(gl_act(c, rng_element(rng)), m)
        assert acted.in_ua == base.in_ua
        assert acted.in_ub == base.in_ub
        assert acted.type_b == base.type_b


def test_classify_openness_margin():
    lifts = (1.0, 0.6, 0.5)
    margin = ua_margin(lifts)
    assert margin > 0
    rng = random.Random(72)
    for _ in range(50):
        eps = [(rng.random() - 0.5) * margin for _ in range(3)]
        shifted = tuple(l + e * 0.99 / 1.5 for l, e in zip(lifts, eps))
        # perturbations strictly below the margin never flip the verdict
        if max(abs(e) for e in eps) < margin / 2:
            assert in_ua(shifted, tol=0.0) is True


def test_second_branch_gl1():
    c = ChargeData(
        ComplexRational(F(-2), F(1)),
        ComplexRational(F(1), F(1)),
        ComplexRational(F(1), F(-1)),
        (None, 0.25, -0.25),
        frozenset({"stable_sheafO", "stable_pt", "stable_O0"}),
    )
    assert second_gluing_branch(c) is GluingBranch.GL1


def test_second_branch_gl2():
    # pair charge z1 + z3 = -1 with lift 1; phi3 = -1/4, phi2 = 1/4
    c = ChargeData(
        ComplexRational(F(-2), F(1)),
        ComplexRational(F(1), F(1)),
        ComplexRational(F(1), F(-1)),
        (None, 0.25, -0.25),
        frozenset({"stable_sheafO", "stable_pt", "stable_OO"}),
    )
    assert second_gluing_branch(c) is GluingBranch.GL2


def test_second_branch_inconsistent():
    # phi2 = 5/4 violates phi2 < phi3 + 1
    c = ChargeData(
        ComplexRational(F(-2), F(1)),
        ComplexRational(F(-1), F(-1)),
        ComplexRational(F(1), F(-1)),
        (None, 1.25, -0.25),
        frozenset({"stable_sheafO", "stable_pt", "stable_OO"}),
    )
    assert second_gluing_branch(c) is GluingBranch.INCONSISTENT


def test_second_branch_insufficient_and_zero_charge():
    c = ChargeData(
        ComplexRational(F(-2), F(1)),
        ComplexRational(F(1), F(1)),
        ComplexRational(F(1), F(-1)),
        (None, 0.25, -0.25),
        frozenset({"stable_sheafO", "stable_pt"}),
    )
    assert second_gluing_branch(c) is GluingBranch.INSUFFICIENT
    missing_lift = ChargeData(
        ComplexRational(F(-2), F(1)),
        ComplexRational(F(1), F(1)),
        ComplexRational(F(1), F(-1)),
        (None, 0.25, None),
        frozenset({"stable_sheafO", "stable_pt", "stable_O0"}),
    )
    assert second_gluing_branch(missing_lift) is GluingBranch.INSUFFICIENT
    degenerate = ChargeData(
        ComplexRational(F(-1), F(1)),
        ComplexRational(F(1), F(1)),
        ComplexRational(F(1), F(-1)),
        (None, 0.25, -0.25),
        frozenset({"stable_sheafO", "stable_pt", "stable_OO"}),
    )
    with pytest.raises(ZeroCharge):
        second_gluing_branch(degenerate)


def test_second_branch_rotation_invariance():
    # the same data rotated by pi/2 still lands in Gl2: the pair lift is
    # re-derived and the chain re-normalized
    base = ChargeData(
        ComplexRational(F(-2), F(1)),
        ComplexRational(F(1), F(1)),
        ComplexRational(F(1), F(-1)),
        (None, 0.25, -0.25),
        frozenset({"stable_sheafO", "stable_pt", "stable_OO"}),
    )
    rot = GLElement(F(0), F(1), F(-1), F(0), 0)  # acts as rotation by +pi/2
    acted = gl_act(base, rot)
    assert second_gluing_branch(acted) is GluingBranch.GL2


def test_full_classification_round_trip():
    rng = random.Random(73)
    m = make_model("general", 2)
    for _ in range(40):
        p = PlanePoint(
            F(rng.randint(-30, -1), rng.randint(1, 5)),
            F(rng.randint(1, 30), rng.randint(1, 5)),
        )
        c = type_b_triple(p, with_lifts=True, flags=ALL_FLAGS)
        res = full_classification(c, m)
        assert res.in_ub is Membership.YES
        assert res.type_b[0] == p
        assert res.type_b[1] is RegionVerdict.IN  # envelope vanishes on b < 0
        assert res.second_branch is GluingBranch.GL1
        doc = classification_to_json(res)
        assert doc["typeB"]["point"] == [str(p.b), str(p.w)]
