"""Canonical JSON encoding of result types; only walls are decoded.

Rationals serialize as strings ("p/q", or "p" for integers), never as
floats; points and complex values as two-element arrays.  Walls, read
back from cache entries, are the only documents decoded here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .charges import ComplexRational, GLElement, PlanePoint
from .classify import ClassificationResult
from .envelopes import BNModel, PLFunction, rat
from .lattice import NumClass
from .walls import ChamberReport, Check, RationalLine, Wall


def unrat(x: Fraction) -> str:
    return str(Fraction(x))


def slope_text(x) -> str:
    """A slope: "inf" for a vertical one, else its `unrat` string."""
    return "inf" if x == math.inf else unrat(x)


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- walls ---------------------------------------------------------------


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
