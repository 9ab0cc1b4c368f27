"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact unless a tolerance is stated inline.
"""

import io
import json
import math
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from cswalls.charges import (
    GLElement,
    PlanePoint,
    central_charge,
    gl_act,
    gluing_presentation,
    nu,
    type_b_triple,
)
from cswalls.classify import (
    GluingBranch,
    Membership,
    classify_regions,
    in_ua,
    second_gluing_branch,
)
from cswalls.charges import ChargeData, ComplexRational, normalize_type_b
from cswalls.cli import run
from cswalls.envelopes import RegionVerdict, make_model, mercat_upper
from cswalls.errors import DomainError, NotAboveEnvelope
from cswalls.jsonio import walls_from_json, walls_to_json
from cswalls.lattice import (
    PAIR_CLASS,
    POINT_CLASS,
    SECTION_CLASS,
    SHEAF_CLASS,
    NumClass,
    det3,
    dual_class,
    euler,
    mutate_left,
    project,
    serre_class,
    serre_matrix,
)
from cswalls.walls import (
    EVERYWHERE_EQUAL,
    NO_WALL,
    BogomolovVerdict,
    Window,
    bogomolov_verdict,
    delta_certificate,
    enumerate_walls,
    find_delta,
    ray_line,
    support_form_value,
    wall_line,
)

from gridscan import grid_oracle


def report(number, text):
    print(f"[criterion {number:02d}] PASS - {text}")


def rng_class(rng, bound=50):
    return NumClass(rng.randint(-bound, bound), rng.randint(-bound, bound),
                    rng.randint(-bound, bound))


def test_c01_exceptionality_and_semiorthogonality():
    for g in range(1, 21):
        assert euler(SECTION_CLASS, SECTION_CLASS, g) == 1
        assert euler(PAIR_CLASS, PAIR_CLASS, g) == 1
        assert euler(SHEAF_CLASS, SECTION_CLASS, g) == 0
        assert euler(POINT_CLASS, SECTION_CLASS, g) == 0
    report(1, "exceptional self-pairings 1, semiorthogonal pairings 0, "
              "g in 1..20")


def test_c02_numerical_serre_duality():
    rng = random.Random(1002)
    for _ in range(1000):
        a, b = rng_class(rng), rng_class(rng)
        g = rng.randint(1, 10)
        assert euler(a, b, g) == euler(b, serre_class(a, g), g)
    for g in range(1, 11):
        assert det3(serre_matrix(g)) == 1
    report(2, "chi(a,b) = chi(b,S a) on 1000 random pairs; det S = 1, "
              "g in 1..10")


def test_c03_duality_functor():
    rng = random.Random(1003)
    for _ in range(1000):
        a, b = rng_class(rng), rng_class(rng)
        g = rng.randint(1, 10)
        assert dual_class(dual_class(a)) == a
        assert euler(dual_class(a), dual_class(b), g) == euler(b, a, g)
    assert dual_class(SECTION_CLASS) == PAIR_CLASS
    report(3, "dual is an exact involution reversing the pairing; "
              "dual(0,0,1) = (1,0,1)")


def test_c04_mutation_formulas():
    rng = random.Random(1004)
    for _ in range(500):
        v = rng_class(rng)
        g = rng.randint(1, 10)
        r, d, n = v.as_tuple()
        assert mutate_left(SECTION_CLASS, v, g) == NumClass(r, d, d + r * (1 - g))
        assert mutate_left(PAIR_CLASS, v, g) == NumClass(r - n, d, 0)
    report(4, "both mutation displays hold on 500 random classes, "
              "g in 1..10")


def test_c05_wall_geometry():
    rng = random.Random(1005)
    done = 0
    while done < 200:
        v, vs = rng_class(rng, 20), rng_class(rng, 20)
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
            for _ in range(2):
                b = beta + F(rng.randint(1, 60), rng.randint(1, 9)) * rng.choice([1, -1])
                assert nu(v, PlanePoint(b, F(C - A * b, B))) == slope
        else:
            assert nu(v, PlanePoint(beta, eta + rng.randint(1, 9))) == math.inf
        done += 1
    done = 0
    while done < 50:
        d = rng.randint(1, 20)
        v = NumClass(0, d, rng.randint(-20, 20))
        vs = rng_class(rng, 20)
        line = wall_line(v, vs)
        if line in (EVERYWHERE_EQUAL, NO_WALL) or line[1] == 0:
            continue
        assert F(-line[0], line[1]) == F(v.n, v.d)
        done += 1
    report(5, "wall lines pass through the projection, carry constant "
              "slope -A/B, torsion owners give slope n/d")


def test_c06_oracle_equivalence():
    t0 = time.time()
    v = NumClass(2, 3, 1)
    window = Window(F(-3), F(3), F(1, 2), F(6))
    model = make_model("general", 2)
    walls = enumerate_walls(v, 2, window, 3, model)
    exact = {tuple(rec["line"]) for rec in walls}
    approx = grid_oracle(v, 2, window, 3, model, 600)
    elapsed = time.time() - t0
    assert exact == approx
    assert elapsed < 10.0
    report(6, f"600x600 grid oracle and enumerator agree on "
              f"{len(exact)} lines in {elapsed:.1f}s")


def test_c07_ray_transversality():
    v = NumClass(2, 3, 1)
    window = Window(F(-3), F(3), F(1, 2), F(6))
    model = make_model("general", 2)
    walls = walls_from_json(enumerate_walls(v, 2, window, 3, model))
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
    report(7, "every enumerated wall meets each tested ray exactly at "
              "the projection point")


def test_c08_mercat_envelope():
    for g in range(4, 13):
        b1 = 2 + F(2, g - 2)
        b2 = 2 * g - 4 - F(2, g - 2)
        b3 = F(3 * g - 3)
        assert mercat_upper(b1, g) == F(g - 1, g - 2)
        assert mercat_upper(b2, g) == F((g - 1) * (g - 3), g - 2)
        assert mercat_upper(b3, g) == 2 * g - 2
        slopes = [F(1, g), F(1, 2), 1 - F(1, g), F(1)]
        assert slopes == sorted(slopes)
        model = make_model("mercat", g)
        for x in (F(-1), F(-10), F(-1, 7)):
            assert model.upper(x) == 0 and model.lower(x) == 0
        for x in (F(2 * g - 2) + F(1, 3), F(5 * g)):
            assert model.upper(x) == x + 1 - g
            assert model.lower(x) == x + 1 - g
    report(8, "Mercat bound continuous at its breakpoints with the "
              "stated exact values, convex, forced tails exact, g in 4..12")


def test_c09_support_form():
    rng = random.Random(1009)
    models = [make_model("general", g) for g in (1, 2, 3, 5)] + [
        make_model("mercat", 6), make_model("elliptic", 1)]
    for _ in range(100):
        model = rng.choice(models)
        g = model.genus.g
        b0 = F(rng.randint(-30, 6 * g), rng.randint(1, 7))
        w0 = model.upper(b0) + F(rng.randint(1, 40), rng.randint(1, 7))
        delta = find_delta(b0, w0, model)
        q = b0.denominator * w0.denominator
        kernel = NumClass(q, int(b0 * q), int(w0 * q))
        assert support_form_value(kernel, b0, w0, delta) == -delta * q * q < 0
        rows = delta_certificate(b0, w0, delta, model)
        assert rows and all(val > 0 for _, val in rows)
        below = model.upper(b0) - F(rng.randint(0, 5))
        with pytest.raises(NotAboveEnvelope):
            find_delta(b0, below, model)
    report(9, "kernel classes have Q = -delta < 0; certificates validate "
              "at all breakpoints and vertices; non-domination rejected")


def test_c10_bogomolov_verdicts():
    assert bogomolov_verdict(NumClass(1, 1, 3), 5) is BogomolovVerdict.EXCLUDED
    assert bogomolov_verdict(NumClass(1, 15, 1), 5) is BogomolovVerdict.NOT_EXCLUDED
    rng = random.Random(1010)
    for _ in range(20):
        v = NumClass(0, rng.randint(-9, 9), rng.randint(-9, 9))
        assert bogomolov_verdict(v, 5) is BogomolovVerdict.INAPPLICABLE
    report(10, "feasibility verdicts Excluded / NotExcluded / Inapplicable "
               "as stated")


def rng_element(rng):
    while True:
        entries = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
        try:
            return GLElement(*entries, rng.randint(-2, 2))
        except DomainError:
            continue


def test_c11_normalization_round_trip():
    rng = random.Random(1011)
    model = make_model("general", 3)
    flags = frozenset({"stable_O0", "stable_pt"})
    for _ in range(100):
        p = PlanePoint(
            F(rng.randint(-60, -1), rng.randint(1, 9)),
            F(rng.randint(1, 60), rng.randint(1, 9)),
        )
        el = rng_element(rng)
        acted = gl_act(type_b_triple(p, with_lifts=True, flags=flags), el)
        assert normalize_type_b(acted) == p
        res = classify_regions(acted, model)
        assert res.in_ub is Membership.YES
        assert res.type_b == (p, RegionVerdict.IN)
    report(11, "normalize(gl_act(slice data)) recovers (b,w) exactly; "
               "classification gives UB Yes with region In on b < 0")


def test_c12_gluing_presentation():
    rng = random.Random(1012)
    for _ in range(100):
        p = PlanePoint(
            F(rng.randint(-60, -1), rng.randint(1, 9)),
            F(rng.randint(1, 60), rng.randint(1, 9)),
        )
        el = gluing_presentation(p)
        lo, hi = el.lift_at_zero_bounds()
        assert (lo, hi) == (F(0), F(1, 2))  # open quadrant (0, 1/2)
        assert 0.0 < el.lift_at_zero() < 0.5
        for _ in range(100):
            v = rng_class(rng, 30)
            gre, gim = el.apply_inverse(F(-v.d), F(v.r))
            z = central_charge(v, p)
            assert (-v.n + gre, gim) == (z.re, z.im)
    report(12, "presented element reproduces the slice charge on 100x100 "
               "random cases exactly, with f(0) in (0, 1/2)")


def test_c13_classifier():
    assert in_ua((1, 3 / 5, 1 / 2)) is True
    assert in_ua((1, 1 / 2, 1 / 2)) is False
    assert in_ua((1, 8 / 5, 1 / 2)) is False
    base = dict(
        z1=ComplexRational(F(-2), F(1)),
        z2=ComplexRational(F(1), F(1)),
        z3=ComplexRational(F(1), F(-1)),
        lifts=(None, 0.25, -0.25),
    )
    gl1 = ChargeData(**base, flags=frozenset(
        {"stable_sheafO", "stable_pt", "stable_O0"}))
    assert second_gluing_branch(gl1) is GluingBranch.GL1
    gl2 = ChargeData(**base, flags=frozenset(
        {"stable_sheafO", "stable_pt", "stable_OO"}))
    assert second_gluing_branch(gl2) is GluingBranch.GL2
    bad = ChargeData(
        z1=ComplexRational(F(-2), F(1)),
        z2=ComplexRational(F(-1), F(-1)),
        z3=ComplexRational(F(1), F(-1)),
        lifts=(None, 1.25, -0.25),
        flags=frozenset({"stable_sheafO", "stable_pt", "stable_OO"}),
    )
    assert second_gluing_branch(bad) is GluingBranch.INCONSISTENT
    report(13, "UA truth table and the three second-gluing cases "
               "(Gl1 / Gl2 / Inconsistent)")


def test_c14_cli_contract(tmp_path):
    argv = ["walls", "--class", "2,3,1", "--genus", "2",
            "--window", "-3,3,1/2,6", "--rank-bound", "3",
            "--format", "json"]

    def invoke(a, env=None):
        out, err = io.StringIO(), io.StringIO()
        code = run(a, stdout=out, stderr=err, environ=env or {})
        assert code == 0, err.getvalue()
        return out.getvalue()

    first = invoke(argv)
    second = invoke(argv)
    assert first == second  # byte determinism
    docs = json.loads(first)
    walls = walls_from_json(docs)
    assert walls_to_json(walls) == docs  # decode/encode identity

    cache = tmp_path / "cache"
    cached1 = invoke(argv + ["--cache-dir", str(cache)])
    cached2 = invoke(argv + ["--cache-dir", str(cache)])
    assert cached1 == cached2 == first  # cache-on equals cache-off

    svg_path = tmp_path / "walls.svg"
    invoke(["plot", "--class", "2,3,1", "--genus", "2",
            "--window", "-3,3,1/2,6", "--rank-bound", "3",
            "--out", str(svg_path)])
    text = svg_path.read_text()
    root = ET.fromstring(text)  # well-formed XML
    sx = F(500) / 6
    sy = F(520) / F(11, 2)
    ns = "{http://www.w3.org/2000/svg}"
    polys = [el for el in root.iter(ns + "polyline")
             if el.get("stroke") == "#1f4fa0"]
    assert len(polys) == len(walls)
    for poly, wall in zip(polys, walls):
        for pair in poly.get("points").split():
            x_txt, y_txt = pair.split(",")
            b = (F(x_txt) - 60) / sx + F(-3)
            w = F(1, 2) + (F(560) - F(y_txt)) / sy
            A, B, C = wall.line
            residual = A * b + B * w - C
            assert abs(residual) < F(1, 10**6)
    report(14, "CLI: JSON round trip, byte determinism, cache soundness, "
               "well-formed SVG inverting onto the exact lines within 1e-6")
