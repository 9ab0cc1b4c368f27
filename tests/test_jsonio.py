import copy
import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cswalls.envelopes import make_model
from cswalls.jsonio import (
    dumps,
    dumps_wall_records,
    rat_pair,
    wall_records_valid,
    walls_from_json,
    walls_to_json,
)
from cswalls.lattice import NumClass
from cswalls.walls import Window, enumerate_walls, line_cmp, ratio_text

# --- the canonical encoder ---------------------------------------------------

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-10**80, max_value=10**80)
    | st.floats()
    | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300,
                       5e-324])
    # every code point, surrogates and control characters included
    | st.text(st.characters(exclude_categories=()))
    | st.text("\x00\x1f\x7f\"\\/\n\té \U0001f600")
)
TREES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children)
                      | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40,
)


def _nested(depth: int):
    tree = ["leaf", {}, [], ()]
    for i in range(depth):
        tree = [tree] if i % 2 else {"k%d" % i: tree, "a": i}
    return tree


@settings(max_examples=150)
@given(TREES)
@example(_nested(150))
@example({"b": [1, 2.5, "x"], "a": {"z": None, "y": (True, False)}})
@example({1: "a"})  # json writes an int key as a string
def test_dumps_equals_json_with_sorted_keys_and_indent_2(tree):
    assert dumps(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes",
                                   {(1, 2): "a"},  # a key json cannot write
                                   [1, {"a": object()}]])
def test_dumps_rejects_what_is_not_a_json_tree(value):
    with pytest.raises(TypeError):
        dumps(value)


# --- wall records ------------------------------------------------------------

WINDOW = Window(-4, 4, 1, 8)
MODELS = {"general": (2, "general"), "mercat": (5, "mercat"),
          "elliptic": (1, "elliptic")}


@functools.lru_cache(maxsize=None)
def _records(cls: tuple, model: str) -> tuple:
    """(owner, the records `enumerate_walls` writes for its walls at rank
    bound 1)."""
    g, kind = MODELS[model]
    v = NumClass(*cls)
    return v, enumerate_walls(v, g, WINDOW, 1, make_model(kind, g))


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(-2, 3), st.integers(-3, 4), st.integers(-2, 3)),
       st.sampled_from(sorted(MODELS)))
@example((2, 3, 1), "general")
@example((0, 3, 1), "mercat")
@example((0, 0, 0), "general")  # no walls
def test_validator_accepts_every_record_list_walls_to_json_writes(cls, model):
    v, records = _records(cls, model)
    assert wall_records_valid(records, v)
    assert walls_to_json(walls_from_json(records)) == records
    # the record writer writes what `dumps` writes, "[]\n" included
    assert dumps_wall_records(records) == dumps(records)


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers().filter(bool))
@example(0, -5)
@example(6, -4)
@example(-7, 1)
def test_ratio_text_writes_what_str_of_fraction_writes(num, den):
    for d in (den, -den):
        assert ratio_text(num, d) == str(Fraction(num, d))


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers().filter(bool))
@example(4, -6)
@example(0, 9)
def test_rat_pair_reads_back_the_reduced_pair(num, den):
    x = Fraction(num, den)
    assert rat_pair(ratio_text(num, den)) == (x.numerator, x.denominator)


@pytest.mark.parametrize("text, pair", [
    ("0", (0, 1)), ("-7", (-7, 1)), ("3/2", (3, 2)), ("-10/3", (-10, 3)),
    ("1/1", None), ("2/4", None), ("0/3", None), ("-0", None), ("+1", None),
    ("01", None), ("1/02", None), ("1/-2", None), ("1/0", None), (" 1", None),
    ("1_0", None), ("٣", None), ("", None), ("1/", None), ("/2", None),
    ("1.5", None), (1, None), (None, None)])
def test_rat_pair_accepts_only_the_canonical_form(text, pair):
    assert rat_pair(text) == pair


def _valid_with_w(end: int, w) -> bool:
    """Whether the check accepts the records of (2, 3, 1) with the w of
    segment end `end` of the first record replaced by `w`."""
    v, records = _records((2, 3, 1), "general")
    mutated = copy.deepcopy(records)
    mutated[0]["segment"][end][1] = w
    return wall_records_valid(mutated, v)


def test_first_record_of_the_w_cases():
    # the record that the w cases below edit: ends (1/4, 8) and (1, 7/2)
    # on 12*b + 2*w = 19
    _, records = _records((2, 3, 1), "general")
    assert records[0]["line"] == [12, 2, 19]
    assert records[0]["segment"] == [["1/4", "8"], ["1", "7/2"]]
    assert _valid_with_w(0, "8") and _valid_with_w(1, "7/2")


@pytest.mark.parametrize("end, w", [
    # the same values in other texts
    (1, "14/4"), (0, "16/2"), (1, "+7/2"), (0, "+8"), (1, "07/2"),
    (1, "7/02"), (0, "08"), (1, " 7/2"), (1, "7/2 "), (0, " 8"),
    # canonical texts off the line by 1/(B*bd): 1/2 at b = 1, 1/8 at 1/4
    (1, "4"), (1, "3"), (0, "65/8"), (0, "63/8"),
    # the value as a JSON number
    (0, 8), (1, 3.5)])
def test_validator_refuses_a_w_the_enumerator_would_not_write(end, w):
    assert not _valid_with_w(end, w)


@pytest.mark.parametrize("witnesses", [
    [[0, 1, -5], [1, 1, 3], [1, 2, -2]],  # as written: accepted
    [[0, 1, -5], [1, 1, 3], [1, 1, 3], [1, 2, -2]],  # a repeat
    [[0, 1, -5], [1, 2, -2], [1, 1, 3]],  # out of order
    [[False, 1, -5], [1, 1, 3], [1, 2, -2]],  # a bool
    [[0, 1.0, -5], [1, 1, 3], [1, 2, -2]],  # a float
    [[0, 1, -5], [1, 1], [1, 2, -2]],  # two ints
    [[0, 1, -5], [1, 1, 3, 0], [1, 2, -2]],  # four ints
    [[0, 1, -5], "1,1,3", [1, 2, -2]],  # not a list
    []])
def test_validator_accepts_witnesses_only_as_written(witnesses):
    v, records = _records((2, 3, 1), "general")
    assert records[1]["destabilizers"] == [[0, 1, -5], [1, 1, 3], [1, 2, -2]]
    mutated = copy.deepcopy(records)
    mutated[1]["destabilizers"] = witnesses
    # as text, since False == 0 and 1.0 == 1
    assert wall_records_valid(mutated, v) == (
        json.dumps(witnesses) == json.dumps(records[1]["destabilizers"]))


#: edits to the first record of (2, 3, 1), 12*b + 2*w = 19 through the
#: projection (3/2, 1/2) with the witness (0, 1, -6), that keep every
#: other rule of the check: a witness off that line, and the parallel line
#: 12*b + 2*w = 21 (its segment moved with it), which (0, 1, -6) still
#: satisfies but which misses the projection
OFF_LINE = {
    "witness-off-line": {"destabilizers": [[0, 1, 5]]},
    "line-off-centre": {"line": [12, 2, 21],
                        "segment": [["1/4", "9"], ["1", "9/2"]]},
}


@pytest.mark.parametrize("edit", sorted(OFF_LINE))
def test_validator_refuses_a_witness_whose_wall_is_not_the_line(edit):
    v, records = _records((2, 3, 1), "general")
    assert records[0]["destabilizers"] == [[0, 1, -6]]
    mutated = copy.deepcopy(records)
    mutated[0].update(OFF_LINE[edit])
    assert walls_to_json(walls_from_json(mutated)) == mutated  # decodes
    assert not wall_records_valid(mutated, v)


#: near-valid replacements for a value of each JSON type
TWEAKS = {
    str: ["+1", "01", "2/4", "1/1", "-0", "1/0", "inf", "Pass ", "pass",
          "Fail", "Unknown", "Pass", "0", "1/2", "-1/2", "3"],
    int: [0, 1, -1, 2, True, False, 1.0, "1"],
    bool: [0, 1, None],
}


def _mutated(draw, value):
    """`value` with one random change somewhere inside it."""
    here = draw(st.booleans()) or not isinstance(value, (list, dict)) or (
        not value)
    if not here:
        if isinstance(value, list):
            i = draw(st.integers(0, len(value) - 1))
            return value[:i] + [_mutated(draw, value[i])] + value[i + 1:]
        key = draw(st.sampled_from(sorted(value)))
        return dict(value, **{key: _mutated(draw, value[key])})
    kind = draw(st.sampled_from(["tweak", "tree", "grow", "shrink",
                                 "scale"]))
    if kind == "tweak" and type(value) in TWEAKS:
        return draw(st.sampled_from(TWEAKS[type(value)]))
    if kind == "grow" and isinstance(value, list):
        return value + [draw(st.sampled_from(value) if value else TREES)]
    if kind == "grow" and isinstance(value, dict):
        return dict(value, **{draw(st.text(max_size=12)): draw(TREES)})
    if kind == "shrink" and isinstance(value, (list, dict)) and value:
        drop = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                    else range(len(value))))
        if isinstance(value, dict):
            return {k: v for k, v in value.items() if k != drop}
        return value[:drop] + value[drop + 1:]
    if kind == "scale" and isinstance(value, list) and all(
            type(x) is int for x in value):
        k = draw(st.sampled_from([-1, 2, 3]))
        return [k * x for x in value]
    return draw(TREES)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([((2, 3, 1), "general"), ((0, 3, 1), "general"),
                        ((2, 4, 0), "mercat"), ((1, 2, 1), "elliptic")]),
       st.data())
def test_validator_is_never_looser_than_the_decoder(case, data):
    v, records = _records(*case)
    assert records
    mutated = copy.deepcopy(records)
    i = data.draw(st.integers(0, len(records) - 1))
    mutated[i] = _mutated(data.draw, mutated[i])
    if wall_records_valid(mutated, v):
        # what the validator accepts decodes, encodes back as it was, and
        # is written by the record writer as `dumps` writes it
        assert walls_to_json(walls_from_json(mutated)) == mutated
        assert dumps_wall_records(mutated) == dumps(mutated)
    else:  # as text, since True == 1 and 1.0 == 1
        assert json.dumps(mutated) != json.dumps(records)


# --- the record check against its reference --------------------------------


def _reference_rat_pair(text):
    """(num, den) of a text that `ratio_text` writes back unchanged, else
    None: the segment-end parse that the record check once made."""
    if type(text) is not str:
        return None
    num, slash, den = text.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        return None
    if d == 0 or ratio_text(n, d) != text:
        return None
    return n, d


_REFERENCE_KEYS = {"owner", "destabilizers", "line", "nu", "segment",
                   "verdicts"}
_REFERENCE_VERDICTS = {"im_positive", "q_nonneg", "feasibility", "region"}


def _reference_records_valid(docs, owner) -> bool:
    """The record check as it stood before each verdict had its own
    domain: every verdict any of "Pass", "Fail", "Unknown", and each
    segment end's b read by `_reference_rat_pair`."""
    def is_class(x):
        return type(x) is list and [type(y) for y in x] == [int, int, int]

    if type(docs) is not list:
        return False
    own = list(owner.as_tuple())
    r, d, n = own
    prev = None
    for doc in docs:
        if type(doc) is not dict or doc.keys() != _REFERENCE_KEYS:
            return False
        line, seg, checks = doc["line"], doc["segment"], doc["verdicts"]
        witnesses = doc["destabilizers"]
        if not (is_class(doc["owner"]) and doc["owner"] == own
                and type(witnesses) is list and witnesses
                and is_class(line) and type(seg) is list and len(seg) == 2
                and type(checks) is dict
                and checks.keys() == _REFERENCE_VERDICTS):
            return False
        try:
            if not {"Pass", "Fail", "Unknown"}.issuperset(checks.values()):
                return False
        except TypeError:  # an unhashable value
            return False
        a, b, c = line
        if (math.gcd(a, b, c) != 1 or b == 0 or a < 0 or (a == 0 and b < 0)
                or a * d + b * n != c * r):
            return False
        last = None
        for x in witnesses:
            if (not is_class(x) or last is not None and last >= x
                    or a * x[1] + b * x[2] != c * x[0]
                    or r * x[1] == x[0] * d):
                return False
            last = x
        if doc["nu"] != ratio_text(-a, b):
            return False
        if prev is not None and line_cmp(prev, line) >= 0:
            return False
        prev = line
        ends = []
        for point in seg:
            if type(point) is not list or len(point) != 2:
                return False
            bp = _reference_rat_pair(point[0])
            if bp is None or point[1] != ratio_text(c * bp[1] - a * bp[0],
                                                    b * bp[1]):
                return False
            ends.append(bp)
        (pn, pd), (qn, qd) = ends
        if pn * qd >= qn * pd:
            return False
    return True


#: what the enumerator writes for each verdict
VERDICT_DOMAINS = {"im_positive": {"Pass"}, "q_nonneg": {"Pass", "Unknown"},
                   "region": {"Pass", "Unknown"},
                   "feasibility": {"Pass", "Fail", "Unknown"}}

#: segment-end b texts: canonical and not, with the same value or not
B_TEXTS = TWEAKS[str] + [
    "1/1", "0/3", "1/02", "1/-2", "-1/-2", " 1", "1 ", "1_0", "٣",
    "１", "", "1/", "/2", "1.5", "1e1", "3/6", "-3/6", "+1/2", "00",
    "-", "1//2", "1/2/3", "1/4", "-1/4", "5/4", "-5/4", "7/2", "99/100"]


def _w_text(line, b):
    """The text the enumerator writes for the line's w at b."""
    A, B, C = line
    return str((C - A * b) / B)


@st.composite
def record_mutations(draw):
    """(case, records) with one change to real records: a tweaked value
    anywhere, a segment end's b as another text with w moved onto the
    line (or left, or moved off it), a verdict, or an order."""
    case = draw(st.sampled_from([((2, 3, 1), "general"),
                                 ((0, 3, 1), "general"),
                                 ((2, 4, 0), "mercat"),
                                 ((1, 2, 1), "elliptic"),
                                 ((2, 3, 0), "mercat")]))
    recs = copy.deepcopy(_records(*case)[1])
    i = draw(st.integers(0, len(recs) - 1))
    rec = recs[i]
    kind = draw(st.sampled_from(["any", "b", "w", "verdict", "order"]))
    if kind == "any":
        recs[i] = _mutated(draw, rec)
    elif kind == "b":
        end = rec["segment"][draw(st.integers(0, 1))]
        text = draw(st.sampled_from(B_TEXTS) | st.builds(
            "{}/{}".format, st.integers(-30, 30), st.integers(-8, 8))
            | st.integers(-3, 3) | st.booleans() | st.none())
        end[0] = text
        try:
            w = _w_text(rec["line"], Fraction(text))
        except (TypeError, ValueError, ZeroDivisionError):
            w = None
        how = draw(st.sampled_from(["on", "keep", "off"]))
        if w is not None and how != "keep":
            end[1] = w if how == "on" else str(Fraction(w) + Fraction(1, 7))
    elif kind == "w":
        end = rec["segment"][draw(st.integers(0, 1))]
        b = Fraction(end[0]) + draw(st.fractions(-2, 2, max_denominator=6))
        end[1] = draw(st.sampled_from([_w_text(rec["line"], b), str(b),
                                       end[1] + " ", Fraction(end[1])]))
    elif kind == "verdict":
        name = draw(st.sampled_from(sorted(VERDICT_DOMAINS)))
        rec["verdicts"][name] = draw(st.sampled_from(
            TWEAKS[str] + [None, 1, True, ["Pass"], {"Pass": 1}]))
    else:
        j = draw(st.integers(0, len(recs) - 1))
        recs[i], recs[j] = recs[j], recs[i]
        if draw(st.booleans()):
            rec["segment"].reverse()
    return case, recs


def _in_domains(records) -> bool:
    return all(rec["verdicts"][name] in dom for rec in records
               for name, dom in VERDICT_DOMAINS.items())


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(record_mutations())
def test_validator_matches_its_reference_on_mutated_records(mutation):
    case, records = mutation
    v, written = _records(*case)
    assert _reference_records_valid(written, v)
    want = _reference_records_valid(records, v) and _in_domains(records)
    assert wall_records_valid(records, v) == want
