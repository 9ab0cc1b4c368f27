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
writes every other document with `json.dumps`.  The two fill `%`
templates that `_template` builds once, at import, from `json.dumps` of
prototype documents, so the layout is `json.dumps`'s alone.
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


# --- templates -----------------------------------------------------------

_INTS3 = ["@d@"] * 3  # a class or a line: three integer slots


def _template(doc, depth: int) -> str:
    """A `%` template of `doc` as `dumps` writes it at nesting depth
    `depth` of a document: `json.dumps(doc, sort_keys=True, indent=2)`,
    each continuation line indented `depth` levels more, and each marker
    text turned into a slot: "@d@" into %d, "@x@" into a bare %s (for a
    JSON text written in place) and @s@ into a quoted %s (for a text
    that needs no JSON escape)."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + "  " * depth).replace(
        '"@d@"', "%d").replace('"@x@"', "%s").replace("@s@", "%s")


#: what `dumps` writes between two records of a record list, two
#: witnesses of a record and two chambers of a report: the text between
#: the slots of a two-slot list at the depth of the list
_NEXT_RECORD, _NEXT_WITNESS, _NEXT_CHAMBER = (
    _template(["@x@", "@x@"], depth).split("%s")[1] for depth in (0, 2, 1))


# --- walls ---------------------------------------------------------------

_VERDICTS = ("feasibility", "im_positive", "q_nonneg", "region")
#: the record list with the new line `dumps` ends it with, one wall
#: record in it (its witnesses in place, then its integers and texts in
#: sorted-key order) and one witness in that
_RECORDS = _template(["@x@"], 0) + "\n"
_RECORD = _template({
    "destabilizers": ["@x@"], "line": _INTS3, "nu": "@s@", "owner": _INTS3,
    "segment": [["@s@", "@s@"]] * 2,
    "verdicts": dict.fromkeys(_VERDICTS, "@s@")}, 1)
_WITNESS = _template(_INTS3, 3)
_verdicts = itemgetter(*_VERDICTS)


def dumps_wall_records(records) -> str:
    """`dumps(records)` for a list of wall records, written from the
    `_template`s of the list, a record and a witness; the one JSON writer
    of record lists.

    It is exact only for records that `walls._record` writes, the only
    records the CLI renders: classes and lines of three ints (no bools),
    and texts ("nu", the segment ends, the verdicts) that need no JSON
    escape, since they are `ratio_text` values and `Check` values.  The
    texts go in unescaped for that reason."""
    if not records:
        return dumps(records)
    return _RECORDS % _NEXT_RECORD.join([_RECORD % (
        _NEXT_WITNESS.join([_WITNESS % tuple(c)
                            for c in rec["destabilizers"]]),
        *rec["line"], rec["nu"], *rec["owner"], *rec["segment"][0],
        *rec["segment"][1], *_verdicts(rec["verdicts"]))
        for rec in records])


def walls_to_json(walls) -> list:
    return [{
        "owner": list(w.owner.as_tuple()),
        "destabilizers": [list(d.as_tuple()) for d in w.destabilizers],
        "line": list(w.line),
        "nu": slope_text(w.nu_value),
        "segment": [point_to_json(p) for p in w.segment],
        "verdicts": {name: check.value for name, check in w.verdicts},
    } for w in walls]


def walls_from_json(docs) -> list:
    return [Wall(
        owner=NumClass(*doc["owner"]),
        destabilizers=tuple(NumClass(*d) for d in doc["destabilizers"]),
        line=tuple(doc["line"]),
        nu_value=math.inf if doc["nu"] == "inf" else rat(doc["nu"]),
        segment=tuple(PlanePoint(rat(b), rat(w)) for b, w in doc["segment"]),
        verdicts=tuple(
            (name, Check(doc["verdicts"][name]))
            for name in ("im_positive", "q_nonneg", "feasibility", "region")
        ),
    ) for doc in docs]


def ratio_parts(text: str) -> tuple:
    """(num, den) of a text in `ratio_text`'s form, with no check that it
    is in that form: for texts that this package wrote."""
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


def records_from_rows(rows, owner: NumClass, rank_bound: int):
    """The wall records of `owner` that `walls._record` rebuilds from the
    cache rows `rows` (as `wall_rows` writes them) of a search at
    `rank_bound`, or None unless every row holds what `enumerate_walls`
    writes, checked in integers: a normalized line (gcd 1, B != 0, first
    nonzero of A, B positive) through the owner's projection (A*d + B*n
    = C*r); at least one witness (r', d', n'), in strictly ascending
    order, each a class the search yields (|r'| <= rank_bound; d' >= 1
    and gcd(d', n') = 1 at r' = 0) on the line and not vertical (A*d' +
    B*n' = C*r' and r*d' != r'*d); rows in strictly ascending `line_cmp`
    order; b ends [num, den] with den > 0 and gcd 1, in strictly
    ascending order; the verdicts the enumerator writes: im_positive
    "Pass", q_nonneg and region "Pass" or "Unknown", feasibility any
    `Check` value.  Every integer is a JSON int, not a bool.  The records
    rebuilt decode with `walls_from_json`, and encode back unchanged."""
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
                    or not -rank_bound <= xr <= rank_bound
                    or xr == 0 and (xd < 1 or gcd(xd, xn) != 1)
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


#: a chamber report, its centre, and one chamber record in its list per
#: kind (each with the bounds of its kind in place, then the integers and
#: texts in sorted-key order); `dumps` ends the report with a new line
_REPORT = _template({"center": "@x@", "chambers": ["@x@"], "kind": "@s@",
                     "owner": _INTS3}, 0) + "\n"
_CENTER = _template(["@s@", "@s@"], 1)
_CHAMBERS = {kind: _template({
    "bounds": bounds, "index": "@d@", "kind": kind, "meets_window": "@x@",
    "region": "@x@", "sample": ["@s@", "@s@"]}, 2) for kind, bounds in (
        ("sector", [["@d@", "@d@"]] * 2), ("strip", ["@x@", "@x@"]),
        ("window", []))}


def dumps_chamber_report(rep: ChamberReport) -> str:
    """`dumps(chamber_report_to_json(rep))`, written from the `_template`s
    of the report, its centre and a chamber of each kind; the one JSON
    writer of chamber reports.

    It is exact only for reports in the form that `chamber_decomposition`
    writes: at least one chamber, sector bounds of two integer pairs,
    strip bounds of two texts or None, no window bounds, and texts (the
    centre, samples, strip bounds, regions) that need no JSON escape.
    The texts go in unescaped for that reason: the decomposition writes
    the rationals with `ratio_text` and the rest as fixed names and
    `RegionVerdict` values."""
    chambers = []
    for ch in rep.chambers:
        kind, bounds, region = ch["kind"], ch["bounds"], ch["region"]
        if kind == "sector":
            bounds = (*bounds[0], *bounds[1])
        else:  # a strip's two intercepts, each a text or None, or nothing
            bounds = ["null" if t is None else '"' + t + '"' for t in bounds]
        chambers.append(_CHAMBERS[kind] % (
            *bounds, ch["index"], BOOLEANS[ch["meets_window"]],
            "null" if region is None else '"' + region + '"', *ch["sample"]))
    center = rep.center
    return _REPORT % (
        "null" if center is None else _CENTER % tuple(center),
        _NEXT_CHAMBER.join(chambers), rep.kind, *rep.owner.as_tuple())


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
