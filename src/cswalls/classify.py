"""Region classification of charge data.

The two open loci of the stability manifold are recognized from charge
values, phase lifts, and caller-asserted stability flags: the first by a
chain of strict lift inequalities, the second by normalizing the frame
back to slice coordinates and testing the envelope region.  Stability of
the distinguished objects is not decidable from numerical data, so the
verdicts are conditional on the asserted flags; missing data yields
Insufficient rather than a guess.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .charges import (
    DEFAULT_TOL,
    ChargeData,
    PlanePoint,
    normalize_type_b,
)
from .envelopes import BNModel, RegionVerdict, region_uc
from .errors import DegenerateFrame, WrongOrientation, ZeroCharge


class Membership(str, Enum):
    YES = "Yes"
    NO = "No"
    INSUFFICIENT = "Insufficient"


class GluingBranch(str, Enum):
    GL1 = "Gl1"
    GL2 = "Gl2"
    INCONSISTENT = "Inconsistent"
    INSUFFICIENT = "Insufficient"


@dataclass(frozen=True)
class ClassificationResult:
    in_ua: Membership
    in_ub: Membership
    type_b: Optional[Tuple[PlanePoint, RegionVerdict]]
    second_branch: Optional[GluingBranch]
    notes: Tuple[str, ...]


def in_ua(lifts, tol: float = DEFAULT_TOL) -> bool:
    """Strict chain phi1 - 1 < phi3 < phi2 < phi3 + 1 with margin > tol."""
    return ua_margin(lifts) > tol


def ua_margin(lifts) -> float:
    """Smallest margin among the three strict chain inequalities."""
    phi1, phi2, phi3 = lifts
    return min(phi3 - (phi1 - 1), phi2 - phi3, (phi3 + 1) - phi2)


def classify_regions(c: ChargeData, model: BNModel) -> ClassificationResult:
    """Conditional membership of the charge data in the two open loci.

    The first locus needs all three stability flags and all three lifts;
    the second needs the first two flags, the first two lifts, and the
    strict phase inequality phi2 < phi1, after which the frame is
    normalized back to a slice point and tested against the model.  The
    two memberships can hold simultaneously.  Every strict inequality
    holds with margin c.tol.
    """
    notes: List[str] = []
    tol = c.tol

    ua_flags = {"stable_O0", "stable_pt", "stable_sheafO"}
    if not ua_flags <= c.flags or any(x is None for x in c.lifts):
        ua = Membership.INSUFFICIENT
        notes.append("UA: needs flags stable_O0, stable_pt, stable_sheafO "
                     "and all three lifts")
    else:
        margin = ua_margin(c.lifts)
        if margin > tol:
            ua = Membership.YES
            notes.append(f"UA: margin {margin:.6e}")
        else:
            ua = Membership.NO
            if margin > -tol:
                notes.append("UA: a chain inequality sits on the boundary "
                             "within tolerance; the region is open")
            else:
                notes.append(f"UA: margin {margin:.6e}")

    type_b = None
    ub_flags = {"stable_O0", "stable_pt"}
    if not ub_flags <= c.flags or c.lifts[0] is None or c.lifts[1] is None:
        ub = Membership.INSUFFICIENT
        notes.append("UB: needs flags stable_O0, stable_pt and lifts "
                     "phi1, phi2")
    elif not c.lifts[1] < c.lifts[0] - tol:
        ub = Membership.NO
        notes.append("UB: requires the strict phase inequality phi2 < phi1")
    else:
        try:
            point = normalize_type_b(c)
        except DegenerateFrame as exc:
            ub = Membership.NO
            notes.append(
                f"UB: DegenerateFrame: {exc}; collinear charge image "
                "arises only as a boundary limit of first-type data"
            )
        except WrongOrientation as exc:
            ub = Membership.NO
            notes.append(f"UB: WrongOrientation: {exc}")
        else:
            ub = Membership.YES
            type_b = (point, region_uc(point.as_tuple(), model))
    return ClassificationResult(ua, ub, type_b, None, tuple(notes))


def second_gluing_branch(c: ChargeData) -> GluingBranch:
    """Which gluing produces the data, given stability of the structure
    sheaf and the skyscrapers.

    The first branch applies as soon as the pure-sections object is
    asserted stable.  Otherwise, with the identity pair asserted stable,
    lifts are rotated so the pair's lift equals 1 and the chain
    phi3 <= 0 and phi3 < phi2 < phi3 + 1 is required within c.tol.
    """
    if not {"stable_sheafO", "stable_pt"} <= c.flags:
        return GluingBranch.INSUFFICIENT
    if c.lifts[1] is None or c.lifts[2] is None:
        return GluingBranch.INSUFFICIENT
    if "stable_O0" in c.flags:
        return GluingBranch.GL1
    if "stable_OO" not in c.flags:
        return GluingBranch.INSUFFICIENT
    pair_charge = c.z1 + c.z3  # charge of the class (1, 0, 1)
    if pair_charge.is_zero():
        raise ZeroCharge("the identity-pair charge z1 + z3 vanishes")
    phi2, phi3 = c.lifts[1], c.lifts[2]
    # lift of the pair charge in the window (phi3, phi3 + 2]
    t = pair_charge.principal_phase()
    pair_lift = t + 2 * math.ceil((phi3 - t) / 2)
    if pair_lift <= phi3:
        pair_lift += 2
    shift = 1 - pair_lift
    phi2 += shift
    phi3 += shift
    if phi3 > c.tol:
        return GluingBranch.INCONSISTENT
    if not (phi2 - phi3 > c.tol and (phi3 + 1) - phi2 > c.tol):
        return GluingBranch.INCONSISTENT
    return GluingBranch.GL2


def full_classification(c: ChargeData, model: BNModel) -> ClassificationResult:
    """classify_regions plus the second-gluing branch when it resolves."""
    base = classify_regions(c, model)
    notes = list(base.notes)
    branch: Optional[GluingBranch]
    try:
        branch = second_gluing_branch(c)
    except ZeroCharge as exc:
        branch = None
        notes.append(f"second branch: {exc}")
    if branch in (GluingBranch.INSUFFICIENT,):
        notes.append("second branch: insufficient flags or lifts")
        branch = None
    elif branch is GluingBranch.INCONSISTENT:
        notes.append("second branch: phase chain inconsistent")
    return ClassificationResult(
        base.in_ua, base.in_ub, base.type_b, branch, tuple(notes)
    )
