"""Canonical JSON encoding of result types, and the wall record check.

Rationals serialize as strings ("p/q", or "p" for integers), never as
floats; points and complex values as two-element arrays.  Wall records,
as `walls.enumerate_walls` writes them and read back from cache entries,
are the only documents read here: they are checked in integers
(`wall_records_valid`) and used as they are.  `walls_from_json` decodes
them into `Wall`s for callers that want the objects, and `walls_to_json`
encodes those back.  `dumps_wall_records` writes a list of records as
canonical JSON text, and `dumps` writes every other document.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from operator import itemgetter

from .charges import ComplexRational, GLElement, PlanePoint
from .classify import ClassificationResult
from .envelopes import BNModel, PLFunction, rat
from .lattice import NumClass
from .walls import (ChamberReport, Check, RationalLine, Wall, line_cmp,
                    ratio_text)


def unrat(x: Fraction) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


def slope_text(x) -> str:
    """A slope: "inf" for a vertical one, else its `unrat` string."""
    return "inf" if x == math.inf else unrat(x)


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline; the
    text of `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, whose
    indented form runs json's pure-Python encoder."""
    return _encode(obj, "\n") + "\n"


def _encode(o, nl: str) -> str:
    """`o` as JSON, its nested lines starting with `nl` plus two spaces.
    Types are tested in json's order; a dict key that is not a string
    raises TypeError (json would convert it)."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        # a str item, the most common, skips the call
        return "[" + inner + sep.join([
            _quote(x) if type(x) is str else _encode(x, inner)
            for x in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + sep.join([
            _quote(k) + ": " + (_quote(v) if type(v) is str
                                else _encode(v, inner))
            for k, v in sorted(o.items())]) + nl + "}"
    raise TypeError(
        f"Object of type {type(o).__name__} is not JSON serializable")


# --- walls ---------------------------------------------------------------

_VERDICTS = ("feasibility", "im_positive", "q_nonneg", "region")
#: one wall record as `dumps` indents it inside the record list: the six
#: keys and the four verdicts in sorted order, integers and texts in place
_RECORD = """  {
    "destabilizers": [
      %s
    ],
    "line": [
      %d,
      %d,
      %d
    ],
    "nu": "%s",
    "owner": [
      %d,
      %d,
      %d
    ],
    "segment": [
      [
        "%s",
        "%s"
      ],
      [
        "%s",
        "%s"
      ]
    ],
    "verdicts": {
      "feasibility": "%s",
      "im_positive": "%s",
      "q_nonneg": "%s",
      "region": "%s"
    }
  }"""
_CLASS = "[\n        %d,\n        %d,\n        %d\n      ]"
_verdicts = itemgetter(*_VERDICTS)


def dumps_wall_records(records) -> str:
    """`dumps(records)` for a list of wall records, written from one fixed
    template; the one JSON writer of record lists.

    It is exact only for records in the form that `enumerate_walls` writes
    and `wall_records_valid` accepts: classes and lines of three ints (no
    bools), and texts ("nu", the segment ends, the verdicts) that need no
    JSON escape.  The texts go in unescaped for that reason: the enumerator
    writes them with `ratio_text` and as `Check` values, and the check
    admits no other text."""
    if not records:
        return "[]\n"
    return "[\n" + ",\n".join([_RECORD % (
        ",\n      ".join([_CLASS % tuple(c) for c in rec["destabilizers"]]),
        *rec["line"], rec["nu"], *rec["owner"], *rec["segment"][0],
        *rec["segment"][1], *_verdicts(rec["verdicts"]))
        for rec in records]) + "\n]\n"


def wall_to_json(w: Wall) -> dict:
    return {
        "owner": list(w.owner.as_tuple()),
        "destabilizers": [list(d.as_tuple()) for d in w.destabilizers],
        "line": list(w.line.as_tuple()),
        "nu": slope_text(w.nu_value),
        "segment": [point_to_json(p) for p in w.segment],
        "verdicts": {name: check.value for name, check in w.verdicts},
    }


def wall_from_json(doc: dict) -> Wall:
    nu_raw = doc["nu"]
    nu_value = math.inf if nu_raw == "inf" else rat(nu_raw)
    seg = tuple(PlanePoint(rat(b), rat(w)) for b, w in doc["segment"])
    return Wall(
        owner=NumClass(*doc["owner"]),
        destabilizers=tuple(NumClass(*d) for d in doc["destabilizers"]),
        line=RationalLine(*doc["line"]),
        nu_value=nu_value,
        segment=seg,
        verdicts=tuple(
            (name, Check(doc["verdicts"][name]))
            for name in ("im_positive", "q_nonneg", "feasibility", "region")
        ),
    )


def walls_to_json(walls) -> list:
    return [wall_to_json(w) for w in walls]


def walls_from_json(docs) -> list:
    return [wall_from_json(d) for d in docs]


def ratio_parts(text: str) -> tuple:
    """(num, den) of a text in `ratio_text`'s form, with no check that it
    is in that form: the parse half of `rat_pair`, for texts that the
    enumerator wrote or `wall_records_valid` has accepted."""
    num, slash, den = text.partition("/")
    return int(num), int(den) if slash else 1


def rat_pair(text):
    """(num, den) of a rational written as `ratio_text` writes it ("p", or
    "p/q" with q > 1 and gcd 1, in plain ASCII digits with no "+" and no
    leading zero); None for any other value."""
    if type(text) is not str:
        return None
    try:  # int() also takes "+1", " 1", "1_0" and non-ASCII digits
        n, d = ratio_parts(text)
    except ValueError:
        return None
    # ratio_text(1, 0) is "1/0"
    if d == 0 or ratio_text(n, d) != text:
        return None
    return n, d


_WALL_KEYS = frozenset(("owner", "destabilizers", "line", "nu", "segment",
                        "verdicts"))
_VERDICT_KEYS = frozenset(_VERDICTS)
_CHECKS = frozenset(c.value for c in Check)
_INT3 = [int, int, int]


def _is_class(x) -> bool:
    return type(x) is list and list(map(type, x)) == _INT3


def _known_checks(values) -> bool:
    try:
        return _CHECKS.issuperset(values)
    except TypeError:  # an unhashable value
        return False


def wall_records_valid(docs, owner: NumClass) -> bool:
    """Whether `docs` is a list of wall records of `owner` in the form
    `enumerate_walls` writes, checked in integers without building a `Wall`:
    exactly the record's keys; the owner; integer classes (no bools), at
    least one destabilizer, in strictly ascending order; a normalized line
    (gcd 1, B != 0, first nonzero of A, B positive) and its slope as "nu"
    in `ratio_text`'s form; records in strictly ascending (nu, line)
    order; a segment of two points on the line with strictly ascending b,
    each coordinate in `rat_pair`'s canonical form; exactly the four
    known verdicts, each a `Check` value.  A record list that passes also
    decodes with `walls_from_json`, and encodes back unchanged."""
    if type(docs) is not list:
        return False
    own = list(owner.as_tuple())
    prev = None  # the line of the last record
    for doc in docs:
        if type(doc) is not dict or doc.keys() != _WALL_KEYS:
            return False
        line, seg, checks = doc["line"], doc["segment"], doc["verdicts"]
        witnesses = doc["destabilizers"]
        if not (_is_class(doc["owner"]) and doc["owner"] == own
                and type(witnesses) is list and witnesses
                and all(map(_is_class, witnesses))
                and all(p < q for p, q in zip(witnesses, witnesses[1:]))
                and _is_class(line) and type(seg) is list
                and len(seg) == 2 and type(checks) is dict
                and checks.keys() == _VERDICT_KEYS
                and _known_checks(checks.values())):
            return False
        a, b, c = line
        if gcd(a, b, c) != 1 or b == 0 or a < 0 or (a == 0 and b < 0):
            return False
        nn, nd = (-a, b) if b > 0 else (a, -b)
        if doc["nu"] != ratio_text(nn, nd):
            return False
        # records ascend strictly in the enumerator's order, by (nu, line)
        if prev is not None and line_cmp(prev, line) >= 0:
            return False
        prev = line
        ends = []
        for point in seg:
            if type(point) is not list or len(point) != 2:
                return False
            bp, wp = rat_pair(point[0]), rat_pair(point[1])
            if (bp is None or wp is None or a * bp[0] * wp[1]
                    + b * wp[0] * bp[1] != c * bp[1] * wp[1]):
                return False
            ends.append(bp)
        (pn, pd), (qn, qd) = ends
        if pn * qd >= qn * pd:  # the segment ascends in b
            return False
    return True


# --- chambers ------------------------------------------------------------


def chamber_report_to_json(rep: ChamberReport) -> dict:
    chambers = []
    for ch in rep.chambers:
        if ch.kind == "sector":
            bounds = [list(ch.bounds[0]), list(ch.bounds[1])]
        elif ch.kind == "strip":
            bounds = [
                None if t is None else unrat(t) for t in ch.bounds
            ]
        else:
            bounds = []
        chambers.append(
            {
                "index": ch.index,
                "kind": ch.kind,
                "bounds": bounds,
                "meets_window": ch.meets_window,
                "sample": point_to_json(ch.sample),
                "region": None if ch.region is None else ch.region.value,
            }
        )
    return {
        "owner": list(rep.owner.as_tuple()),
        "kind": rep.kind,
        "center": None if rep.center is None else point_to_json(rep.center),
        "chambers": chambers,
    }


# --- charges, elements and classifications --------------------------------


def point_to_json(p: PlanePoint) -> list:
    return [unrat(p.b), unrat(p.w)]


def complex_to_json(z: ComplexRational) -> list:
    return [unrat(z.re), unrat(z.im)]


def gl_element_to_json(el: GLElement) -> dict:
    return {
        "m": [
            [unrat(el.m11), unrat(el.m12)],
            [unrat(el.m21), unrat(el.m22)],
        ],
        "winding": el.winding,
    }


def classification_to_json(res: ClassificationResult) -> dict:
    return {
        "in_UA": res.in_ua.value,
        "in_UB": res.in_ub.value,
        "typeB": (
            None
            if res.type_b is None
            else {
                "point": point_to_json(res.type_b[0]),
                "region": res.type_b[1].value,
            }
        ),
        "second_branch": (
            None if res.second_branch is None else res.second_branch.value
        ),
        "notes": list(res.notes),
    }


# --- models ---------------------------------------------------------------


def pl_to_json(f: PLFunction) -> dict:
    return {
        "left": [unrat(f.left_slope), unrat(f.left_value)],
        "pieces": [[unrat(x), unrat(s), unrat(v)] for x, s, v in f.pieces],
        "point_values": [[unrat(x), unrat(v)] for x, v in f.point_values],
    }


def model_to_json(model: BNModel) -> dict:
    return {
        "name": model.name,
        "genus": model.genus.g,
        "exact": model.exact,
        "lower": pl_to_json(model.lower),
        "upper": pl_to_json(model.upper),
    }
