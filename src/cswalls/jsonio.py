"""Canonical JSON encoding of result types, and the wall record check.

Rationals serialize as strings ("p/q", or "p" for integers), never as
floats; points and complex values as two-element arrays.  Wall records,
as `walls.enumerate_walls` writes them and read back from cache entries,
are the only documents read here: they are checked in integers
(`wall_records_valid`) and used as they are.  `walls_from_json` decodes
them into `Wall`s for callers that want the objects, and `walls_to_json`
encodes those back.  `dumps_wall_records` writes a list of records and
`dumps_chamber_report` a chamber report as canonical JSON text, the
bytes of `dumps`, which writes every other document with `json.dumps`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .charges import ComplexRational, GLElement, PlanePoint
from .classify import ClassificationResult
from .envelopes import BNModel, PLFunction, rat
from .lattice import NumClass
from .walls import ChamberReport, Check, Wall, line_cmp, ratio_text


def unrat(x: Fraction) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


def slope_text(x) -> str:
    """A slope: "inf" for a vertical one, else its `unrat` string."""
    return "inf" if x == math.inf else unrat(x)


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
        "line": list(w.line),
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
        line=tuple(doc["line"]),
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
    # the text int() read back must be the one str() writes; "p/1" is not
    if d == 1:
        return (n, 1) if text == str(n) else None
    if d > 1 and text == f"{n}/{d}" and gcd(n, d) == 1:
        return n, d
    return None


_WALL_KEYS = frozenset(("owner", "destabilizers", "line", "nu", "segment",
                        "verdicts"))
_VERDICT_KEYS = frozenset(_VERDICTS)
#: the values the enumerator writes for q_nonneg and region (and "Pass"
#: alone for im_positive, any `Check` value for feasibility)
_PASS_UNKNOWN = ("Pass", "Unknown")
_CHECKS = tuple(c.value for c in Check)
_INT3 = [int, int, int]


def _is_class(x) -> bool:
    return type(x) is list and list(map(type, x)) == _INT3


def wall_records_valid(docs, owner: NumClass) -> bool:
    """Whether `docs` is a list of wall records of `owner` in the form
    `enumerate_walls` writes, checked in integers without building a `Wall`:
    exactly the record's keys; the owner; integer classes (no bools); a
    normalized line (gcd 1, B != 0, first nonzero of A, B positive) through
    the owner's projection (A*d + B*n = C*r) and its slope as "nu" in
    `ratio_text`'s form; at least one destabilizer (r', d', n'), in
    strictly ascending order, each with that line as its wall line
    (A*d' + B*n' = C*r' and r*d' != r'*d); records in strictly ascending
    (nu, line) order; a segment of two points on the line with strictly ascending b,
    each b in `rat_pair`'s canonical form and each w the text that
    `ratio_text` writes for the line's w at that b; exactly the four
    verdicts, each a value the enumerator writes for it: im_positive
    "Pass", q_nonneg and region "Pass" or "Unknown", feasibility any
    `Check` value.  A record list that passes also decodes with
    `walls_from_json`, and encodes back unchanged."""
    if type(docs) is not list:
        return False
    own = list(owner.as_tuple())
    r, d, n = own
    prev = None  # the line of the last record
    for doc in docs:
        if type(doc) is not dict or doc.keys() != _WALL_KEYS:
            return False
        line, seg, checks = doc["line"], doc["segment"], doc["verdicts"]
        witnesses = doc["destabilizers"]
        if not (_is_class(doc["owner"]) and doc["owner"] == own
                and type(witnesses) is list and witnesses
                and _is_class(line) and type(seg) is list
                and len(seg) == 2 and type(checks) is dict
                and checks.keys() == _VERDICT_KEYS
                and checks["im_positive"] == "Pass"
                and checks["q_nonneg"] in _PASS_UNKNOWN
                and checks["region"] in _PASS_UNKNOWN
                and checks["feasibility"] in _CHECKS):
            return False
        a, b, c = line
        if (gcd(a, b, c) != 1 or b == 0 or a < 0 or (a == 0 and b < 0)
                or a * d + b * n != c * r):
            return False
        last = None  # witnesses ascend strictly, each on the line
        for x in witnesses:
            if (type(x) is not list or list(map(type, x)) != _INT3
                    or last is not None and last >= x
                    or a * x[1] + b * x[2] != c * x[0]
                    or r * x[1] == x[0] * d):
                return False
            last = x
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
            bp = rat_pair(point[0])
            # w is on the line exactly when it is the text the enumerator
            # writes for it; an int or a non-canonical text is refused
            if bp is None or point[1] != ratio_text(c * bp[1] - a * bp[0],
                                                    b * bp[1]):
                return False
            ends.append(bp)
        (pn, pd), (qn, qd) = ends
        if pn * qd >= qn * pd:  # the segment ascends in b
            return False
    return True


# --- chambers ------------------------------------------------------------


def chamber_report_to_json(rep: ChamberReport) -> dict:
    return {
        "owner": list(rep.owner.as_tuple()),
        "kind": rep.kind,
        "center": rep.center,
        "chambers": rep.chambers,
    }


#: a chamber report as `dumps` indents it: its four keys, and each chamber
#: record's six, in sorted order
_REPORT = ('{\n  "center": %s,\n  "chambers": [\n%s\n  ],\n  "kind": "%s",\n'
           '  "owner": [\n    %d,\n    %d,\n    %d\n  ]\n}\n')
_CHAMBER = """    {
      "bounds": %s,
      "index": %d,
      "kind": "%s",
      "meets_window": %s,
      "region": %s,
      "sample": [
        "%s",
        "%s"
      ]
    }"""
_SECTOR = ("[\n        [\n          %d,\n          %d\n        ],\n"
           "        [\n          %d,\n          %d\n        ]\n      ]")
_STRIP = "[\n        %s,\n        %s\n      ]"


def _text_or_null(text) -> str:
    return "null" if text is None else '"' + text + '"'


def dumps_chamber_report(rep: ChamberReport) -> str:
    """`dumps(chamber_report_to_json(rep))`, written from fixed templates;
    the one JSON writer of chamber reports.

    It is exact only for reports in the form that `chamber_decomposition`
    writes: at least one chamber, sector bounds of two integer pairs,
    strip bounds of two texts or None, and texts (the centre, samples,
    strip bounds, kinds, regions) that need no JSON escape.  The texts go
    in unescaped for that reason: the decomposition writes the rationals
    with `ratio_text` and the rest as fixed names and `RegionVerdict`
    values."""
    chambers = []
    for ch in rep.chambers:
        bounds = ch["bounds"]
        if ch["kind"] == "sector":
            bounds = _SECTOR % (*bounds[0], *bounds[1])
        elif bounds:
            bounds = _STRIP % tuple(map(_text_or_null, bounds))
        else:
            bounds = "[]"
        chambers.append(_CHAMBER % (
            bounds, ch["index"], ch["kind"],
            "true" if ch["meets_window"] else "false",
            _text_or_null(ch["region"]), *ch["sample"]))
    center = rep.center
    return _REPORT % (
        "null" if center is None
        else '[\n    "%s",\n    "%s"\n  ]' % tuple(center),
        ",\n".join(chambers), rep.kind, *rep.owner.as_tuple())


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
