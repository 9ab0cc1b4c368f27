"""Canonical JSON encoding of result types, and the wall cache rows.

Rationals serialize as strings ("p/q", or "p" for integers), never as
floats; points and complex values as two-element arrays.  A wall cache
entry holds each wall record's integer content as a row (`wall_rows`);
`records_from_rows` checks the rows in integers and rebuilds the records
with `walls._record`, the writer `enumerate_walls` uses, so no stored
text is read.  `walls_from_json` decodes records into `Wall`s for callers
that want the objects, and `walls_to_json` encodes those back.
`dumps_wall_records` writes a list of records and `dumps_chamber_report`
a chamber report as canonical JSON text, the bytes of `dumps`, which
writes every other document with `json.dumps`.
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
from .walls import ChamberReport, Check, Wall, _record, line_cmp


def unrat(x: Fraction) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


def slope_text(x) -> str:
    """A slope: "inf" for a vertical one, else its `unrat` string."""
    return "inf" if x == math.inf else unrat(x)


#: a bool's JSON text, indexed by the bool
BOOLEANS = ("false", "true")


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

    It is exact only for records that `walls._record` writes, the only
    records the CLI renders: classes and lines of three ints (no bools),
    and texts ("nu", the segment ends, the verdicts) that need no JSON
    escape, since they are `ratio_text` values and `Check` values.  The
    texts go in unescaped for that reason."""
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
    is in that form: for texts that `walls._record` wrote."""
    num, slash, den = text.partition("/")
    return int(num), int(den) if slash else 1


def wall_rows(records) -> list:
    """The cache rows of wall records as `enumerate_walls` writes them:
    [line, witnesses, lo, hi, feasibility, im_positive, q_nonneg, region]
    per record, the segment's b ends as reduced [num, den] pairs; what
    `records_from_rows` reads back."""
    return [[rec["line"], rec["destabilizers"],
             *(list(ratio_parts(end[0])) for end in rec["segment"]),
             *_verdicts(rec["verdicts"])] for rec in records]


_PASS_UNKNOWN = ("Pass", "Unknown")
_CHECKS = tuple(c.value for c in Check)


def records_from_rows(rows, owner: NumClass):
    """The wall records of `owner` that `walls._record` rebuilds from the
    cache rows `rows` (as `wall_rows` writes them), or None unless every
    row holds what `enumerate_walls` writes, checked in integers: a
    normalized line (gcd 1, B != 0, first nonzero of A, B positive)
    through the owner's projection (A*d + B*n = C*r); at least one
    witness (r', d', n'), in strictly ascending order, each on the line
    and not vertical (A*d' + B*n' = C*r' and r*d' != r'*d); rows in
    strictly ascending `line_cmp` order; b ends [num, den] with den > 0
    and gcd 1, in strictly ascending order; the verdicts the enumerator
    writes: im_positive "Pass", q_nonneg and region "Pass" or "Unknown",
    feasibility any `Check` value.  Every integer is a JSON int, not a
    bool.  The records rebuilt decode with `walls_from_json`, and encode
    back unchanged."""
    if type(rows) is not list:
        return None
    own = owner.as_tuple()
    r, d, n = own
    prev = None  # the line of the last row
    records = []
    for row in rows:
        if type(row) is not list or len(row) != 8:
            return None
        line, witnesses, lo, hi, feas, im, q, region = row
        if not (type(line) is list and len(line) == 3
                and type(lo) is list and len(lo) == 2
                and type(hi) is list and len(hi) == 2
                and type(witnesses) is list and witnesses and im == "Pass"
                and q in _PASS_UNKNOWN and region in _PASS_UNKNOWN
                and feas in _CHECKS):
            return None
        a, b, c = line
        (pn, pd), (qn, qd) = lo, hi
        # a bool is an int but its type is not
        if not (int is type(a) is type(b) is type(c) is type(pn) is type(pd)
                is type(qn) is type(qd)):
            return None
        if (gcd(a, b, c) != 1 or b == 0 or a < 0 or (a == 0 and b < 0)
                or a * d + b * n != c * r
                or prev is not None and line_cmp(prev, line) >= 0
                or pd <= 0 or qd <= 0 or gcd(pn, pd) != 1
                or gcd(qn, qd) != 1 or pn * qd >= qn * pd):
            return None
        prev = line
        last = None  # witnesses ascend strictly, each on the line
        for x in witnesses:
            if type(x) is not list or len(x) != 3:
                return None
            xr, xd, xn = x
            if (not (int is type(xr) is type(xd) is type(xn))
                    or last is not None and last >= x
                    or a * xd + b * xn != c * xr or r * xd == xr * d):
                return None
            last = x
        records.append(_record(own, *row))
    return records


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
#: a sector's chamber record, the four integers of its bounds in place
_SECTOR_CHAMBER = _CHAMBER.replace("%s", _SECTOR, 1)


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
        bounds, region = ch["bounds"], ch["region"]
        rest = (ch["index"], ch["kind"], BOOLEANS[ch["meets_window"]],
                "null" if region is None else '"' + region + '"',
                *ch["sample"])
        if ch["kind"] == "sector":
            (a, b), (c, d) = bounds
            chambers.append(_SECTOR_CHAMBER % (a, b, c, d, *rest))
            continue
        if bounds:  # a strip's two intercepts, each a text or None
            bounds = _STRIP % tuple(
                ["null" if t is None else '"' + t + '"' for t in bounds])
        chambers.append(_CHAMBER % (bounds or "[]", *rest))
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
