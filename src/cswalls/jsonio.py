"""Canonical JSON encoding/decoding for result types.

Rationals serialize as strings ("p/q", or "p" for integers), never as
floats; complex values as two-element arrays; walls, chamber reports,
classification results and envelope models round-trip losslessly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .charges import ComplexRational, GLElement, PlanePoint
from .envelopes import BNModel, PLFunction, RegionVerdict
from .errors import DomainError
from .lattice import NumClass
from .walls import (
    Chamber,
    ChamberReport,
    Check,
    RationalLine,
    Wall,
)


def rat(s) -> Fraction:
    """Parse a rational from a "p/q" or integer string."""
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational {s!r}: {exc}") from exc


def unrat(x: Fraction) -> str:
    return str(Fraction(x))


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- walls ---------------------------------------------------------------


def wall_to_json(w: Wall) -> dict:
    return {
        "owner": list(w.owner.as_tuple()),
        "destabilizers": [list(d.as_tuple()) for d in w.destabilizers],
        "line": list(w.line.as_tuple()),
        "nu": "inf" if w.nu_value == math.inf else unrat(w.nu_value),
        "segment": [
            [unrat(p.b), unrat(p.w)] for p in w.segment
        ],
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
                "sample": [unrat(ch.sample.b), unrat(ch.sample.w)],
                "region": None if ch.region is None else ch.region.value,
            }
        )
    return {
        "owner": list(rep.owner.as_tuple()),
        "kind": rep.kind,
        "center": (
            None
            if rep.center is None
            else [unrat(rep.center.b), unrat(rep.center.w)]
        ),
        "chambers": chambers,
    }


def chamber_report_from_json(doc: dict) -> ChamberReport:
    chambers = []
    for ch in doc["chambers"]:
        if ch["kind"] == "sector":
            bounds = (tuple(ch["bounds"][0]), tuple(ch["bounds"][1]))
        elif ch["kind"] == "strip":
            bounds = tuple(
                None if t is None else rat(t) for t in ch["bounds"]
            )
        else:
            bounds = ()
        chambers.append(
            Chamber(
                index=ch["index"],
                kind=ch["kind"],
                bounds=bounds,
                meets_window=ch["meets_window"],
                sample=PlanePoint(rat(ch["sample"][0]), rat(ch["sample"][1])),
                region=(
                    None
                    if ch["region"] is None
                    else RegionVerdict(ch["region"])
                ),
            )
        )
    center = doc["center"]
    return ChamberReport(
        owner=NumClass(*doc["owner"]),
        kind=doc["kind"],
        center=(
            None if center is None else PlanePoint(rat(center[0]), rat(center[1]))
        ),
        chambers=tuple(chambers),
    )


# --- charges / elements ---------------------------------------------------


def complex_to_json(z: ComplexRational) -> list:
    return [unrat(z.re), unrat(z.im)]


def complex_from_json(doc) -> ComplexRational:
    return ComplexRational(rat(doc[0]), rat(doc[1]))


def gl_element_to_json(el: GLElement) -> dict:
    return {
        "m": [
            [unrat(el.m11), unrat(el.m12)],
            [unrat(el.m21), unrat(el.m22)],
        ],
        "winding": el.winding,
    }


def gl_element_from_json(doc: dict) -> GLElement:
    (a, b), (c, d) = doc["m"]
    return GLElement(rat(a), rat(b), rat(c), rat(d), int(doc["winding"]))


# --- models ---------------------------------------------------------------


def model_to_json(model: BNModel) -> dict:
    def pl(f: PLFunction) -> dict:
        return f.to_json()

    return {
        "name": model.name,
        "genus": model.genus.g,
        "exact": model.exact,
        "lower": pl(model.lower),
        "upper": pl(model.upper),
    }


def pl_from_json(doc: dict) -> PLFunction:
    return PLFunction(
        tuple((rat(x), rat(s), rat(v)) for x, s, v in doc["pieces"]),
        rat(doc["left"][0]),
        rat(doc["left"][1]),
        tuple((rat(x), rat(v)) for x, v in doc["point_values"]),
    )


def model_from_full_json(doc: dict) -> BNModel:
    from .lattice import Genus

    return BNModel(
        pl_from_json(doc["lower"]),
        pl_from_json(doc["upper"]),
        bool(doc["exact"]),
        Genus(int(doc["genus"])),
        str(doc["name"]),
    )


def classification_from_json(doc: dict):
    from .classify import ClassificationResult, GluingBranch, Membership
    from .envelopes import RegionVerdict

    type_b = doc["typeB"]
    return ClassificationResult(
        Membership(doc["in_UA"]),
        Membership(doc["in_UB"]),
        (
            None
            if type_b is None
            else (
                PlanePoint(rat(type_b["point"][0]), rat(type_b["point"][1])),
                RegionVerdict(type_b["region"]),
            )
        ),
        (
            None
            if doc["second_branch"] is None
            else GluingBranch(doc["second_branch"])
        ),
        tuple(doc["notes"]),
    )
