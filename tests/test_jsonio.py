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
    ratio_parts,
    records_from_rows,
    wall_rows,
    walls_from_json,
    walls_to_json,
)
from cswalls.lattice import NumClass
from cswalls.walls import (Window, _normal, _record, enumerate_walls,
                           line_cmp, ratio_text)

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


# --- wall records and their cache rows ---------------------------------------

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


def _rows(cls: tuple, model: str) -> tuple:
    """(owner, a copy of the cache rows of `_records`' records)."""
    v, records = _records(cls, model)
    return v, copy.deepcopy(wall_rows(records))


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(-2, 3), st.integers(-3, 4), st.integers(-2, 3)),
       st.sampled_from(sorted(MODELS)))
@example((2, 3, 1), "general")
@example((0, 3, 1), "mercat")
@example((0, 0, 0), "general")  # no walls
def test_validator_accepts_every_record_list_walls_to_json_writes(cls, model):
    v, records = _records(cls, model)
    # the rows, through JSON text, rebuild the records as they were
    rows = json.loads(json.dumps(wall_rows(records)))
    assert records_from_rows(rows, v) == records
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
@given(st.tuples(st.integers(), st.integers().filter(bool), st.integers()),
       st.tuples(st.integers(), st.integers(1)),
       st.tuples(st.integers(), st.integers(1)))
@example((0, -3, 6), (0, 4), (-6, 4))
@example((2, -4, 1), (3, 6), (5, 1))
@example((-1, 1, 0), (-7, 2), (9, 3))
def test_record_texts_are_what_str_of_fraction_writes(abc, lo, hi):
    # any line with B != 0, normalized as records hold it, and unreduced
    # ends with positive denominators, as `_fold` passes them
    a, b, c = _normal(*abc)
    rec = _record((2, 3, 1), (a, b, c), [], lo, hi, "Pass", "Pass", "Pass",
                  "Pass")
    assert rec["nu"] == str(Fraction(-a, b))
    assert rec["segment"] == [
        [str(Fraction(bn, bd)), str(Fraction(c * bd - a * bn, b * bd))]
        for bn, bd in (lo, hi)]


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers().filter(bool))
@example(4, -6)
@example(0, 9)
def test_rat_pair_reads_back_the_reduced_pair(num, den):
    # the row writer reads each b end back from the record's text
    x = Fraction(num, den)
    assert ratio_parts(ratio_text(num, den)) == (x.numerator, x.denominator)


def _served(lo) -> list:
    """What the check serves for the rows of (2, 3, 1) with the first
    row's b ends replaced by `lo` and [100, 1]; None when it refuses."""
    v, rows = _rows((2, 3, 1), "general")
    rows[0][2:4] = [lo, [100, 1]]
    return records_from_rows(rows, v)


@pytest.mark.parametrize("text, pair", [
    ("0", (0, 1)), ("-7", (-7, 1)), ("3/2", (3, 2)), ("-10/3", (-10, 3)),
    ("1/1", None), ("2/4", None), ("0/3", None), ("-0", None), ("+1", None),
    ("01", None), ("1/02", None), ("1/-2", None), ("1/0", None), (" 1", None),
    ("1_0", None), ("٣", None), ("", None), ("1/", None), ("/2", None),
    ("1.5", None), (1, None), (None, None)])
def test_rat_pair_accepts_only_the_canonical_form(text, pair):
    # a b end that an entry once held as `text`, moved into a row as the
    # [num, den] pair that `ratio_parts` reads: the row check takes the
    # pair, and the record rebuilt from it writes `text` back, exactly
    # when `text` is in `ratio_text`'s canonical form
    try:
        end = list(ratio_parts(text))
    except (AttributeError, ValueError):
        end = None
    served = None if end is None else _served(end)
    got = None
    if served is not None and served[0]["segment"][0][0] == text:
        got = tuple(end)
    assert got == pair


@pytest.mark.parametrize("end, b", [
    ([0, 1], "0"), ([-7, 1], "-7"), ([3, 2], "3/2"), ([-10, 3], "-10/3"),
    ([1, 1], "1"),
    # the same values unreduced or with a sign on the denominator
    ([2, 4], None), ([0, 3], None), ([-3, -2], None), ([3, -2], None),
    ([1, 0], None), ([0, -1], None),
    # not two JSON ints
    ([True, 1], None), ([1, True], None), ([1.0, 1], None), ([1, 2.0], None),
    ([1], None), ([1, 2, 3], None), ("3/2", None), (None, None)])
def test_row_ends_are_reduced_pairs(end, b):
    served = _served(end)
    assert (served and served[0]["segment"][0][0]) == b


def _valid_with_w(end: int, w) -> bool:
    """Whether the check serves, for the rows of (2, 3, 1), a first record
    whose segment end `end` has the w text `w`.  The rows hold no w: the
    one served is the text that `walls._record` writes for the line."""
    v, rows = _rows((2, 3, 1), "general")
    return records_from_rows(rows, v)[0]["segment"][end][1] == w


def test_first_record_of_the_w_cases():
    # the record that the w cases below read: ends (1/4, 8) and (1, 7/2)
    # on 12*b + 2*w = 19, whose row holds only the b ends
    _, records = _records((2, 3, 1), "general")
    assert records[0]["line"] == [12, 2, 19]
    assert records[0]["segment"] == [["1/4", "8"], ["1", "7/2"]]
    assert _rows((2, 3, 1), "general")[1][0][2:4] == [[1, 4], [1, 1]]
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
    # rows store no w, so no entry can carry one of these into a record
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
    v, rows = _rows((2, 3, 1), "general")
    assert rows[1][1] == [[0, 1, -5], [1, 1, 3], [1, 2, -2]]
    written = copy.deepcopy(rows[1][1])
    rows[1][1] = witnesses
    # as text, since False == 0 and 1.0 == 1
    assert (records_from_rows(rows, v) is not None) == (
        json.dumps(witnesses) == json.dumps(written))


#: edits to the first row of (2, 3, 1), 12*b + 2*w = 19 through the
#: projection (3/2, 1/2) with the witness (0, 1, -6), that keep every
#: other rule of the check: a witness off that line, and the parallel line
#: 12*b + 2*w = 21, which (0, 1, -6) still satisfies but which misses the
#: projection
OFF_LINE = {
    "witness-off-line": {1: [[0, 1, 5]]},
    "line-off-centre": {0: [12, 2, 21]},
}


@pytest.mark.parametrize("edit", sorted(OFF_LINE))
def test_validator_refuses_a_witness_whose_wall_is_not_the_line(edit):
    v, rows = _rows((2, 3, 1), "general")
    assert rows[0][1] == [[0, 1, -6]]
    for field, value in OFF_LINE[edit].items():
        rows[0][field] = value
    record = _record(v.as_tuple(), *rows[0])
    assert walls_to_json(walls_from_json([record])) == [record]  # decodes
    assert records_from_rows(rows, v) is None


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


CASES = [((2, 3, 1), "general"), ((0, 3, 1), "general"),
         ((2, 4, 0), "mercat"), ((1, 2, 1), "elliptic"), ((2, 3, 0), "mercat")]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CASES[:4]), st.data())
def test_validator_is_never_looser_than_the_decoder(case, data):
    v, rows = _rows(*case)
    assert rows
    written = copy.deepcopy(rows)
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i] = _mutated(data.draw, rows[i])
    records = records_from_rows(rows, v)
    if records is not None:
        # what the check serves decodes, encodes back as it was, and is
        # written by the record writer as `dumps` writes it
        assert walls_to_json(walls_from_json(records)) == records
        assert dumps_wall_records(records) == dumps(records)
    else:  # as text, since True == 1 and 1.0 == 1
        assert json.dumps(rows) != json.dumps(written)


# --- the row check against its reference -------------------------------------


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


def _reference_rebuild(rows, owner):
    """The records a naive writer makes of cache rows, or None for rows
    it cannot read: each b end [num, den] written as "num/den" with
    `repr` (as "num" when den is written "1"), so that only a reduced
    pair of ints gives a canonical text, and nu and w as `str` of their
    `Fraction`s."""
    def b_text(end):
        num, den = end
        return repr(num) if repr(den) == "1" else f"{num!r}/{den!r}"

    records = []
    try:
        for line, witnesses, lo, hi, feas, im, q, region in rows:
            A, B, C = line
            ends = [b_text(lo), b_text(hi)]
            records.append({
                "owner": list(owner.as_tuple()),
                "destabilizers": witnesses,
                "line": line,
                "nu": str(Fraction(-A, B)),
                "segment": [[b, str((C - A * Fraction(b)) / B)]
                            for b in ends],
                "verdicts": {"im_positive": im, "q_nonneg": q,
                             "feasibility": feas, "region": region},
            })
    except (TypeError, ValueError, ZeroDivisionError):
        return None
    return records


#: what the enumerator writes for each verdict
VERDICT_DOMAINS = {"im_positive": {"Pass"}, "q_nonneg": {"Pass", "Unknown"},
                   "region": {"Pass", "Unknown"},
                   "feasibility": {"Pass", "Fail", "Unknown"}}

#: b ends: reduced pairs and not, with the same value or not, and values
#: that are no pair of ints
END_VALUES = st.lists(st.integers(-12, 12), min_size=2, max_size=2) | (
    st.sampled_from([[1, 1], [0, 1], [0, 3], [2, 4], [1, 0], [1, -2],
                     [-1, -2], [True, 1], [1, True], [1.0, 1], [1, 2.0],
                     [1], [1, 2, 3], [], "1/2", None, 1, [10**30, 3],
                     ["1", "2"], [[1], 2]]))


@st.composite
def row_mutations(draw):
    """(case, rows) with one change to real rows: a tweaked value
    anywhere, a b end, a verdict, or an order."""
    case = draw(st.sampled_from(CASES))
    _, rows = _rows(*case)
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    kind = draw(st.sampled_from(["any", "end", "verdict", "order"]))
    if kind == "any":
        rows[i] = _mutated(draw, row)
    elif kind == "end":
        row[draw(st.sampled_from([2, 3]))] = draw(END_VALUES)
    elif kind == "verdict":
        row[draw(st.integers(4, 7))] = draw(st.sampled_from(
            TWEAKS[str] + [None, 1, True, ["Pass"], {"Pass": 1}]))
    else:
        j = draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
        if draw(st.booleans()):
            row[2], row[3] = row[3], row[2]
    return case, rows


def _in_domains(records) -> bool:
    return all(rec["verdicts"][name] in dom for rec in records
               for name, dom in VERDICT_DOMAINS.items())


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(row_mutations())
def test_validator_matches_its_reference_on_mutated_records(mutation):
    # the row check accepts exactly the rows whose naively rebuilt records
    # the former record check accepts, and serves those records
    case, rows = mutation
    v, written = _records(*case)
    assert _reference_records_valid(written, v)
    rebuilt = _reference_rebuild(rows, v)
    want = (rebuilt is not None and _reference_records_valid(rebuilt, v)
            and _in_domains(rebuilt))
    served = records_from_rows(rows, v)
    assert (served is not None) == want
    if served is not None:
        assert served == rebuilt
        assert walls_to_json(walls_from_json(served)) == served
        assert dumps_wall_records(served) == dumps(served)
