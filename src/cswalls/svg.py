"""Static SVG rendering of wall diagrams.

The window maps affinely onto a fixed canvas; the exact map is
documented in a comment node so endpoint coordinates can be inverted.
All other output stays exact; the SVG is the one deliberately lossy
rendering, emitted with fixed 9-decimal formatting so identical inputs
produce identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .charges import PlanePoint
from .envelopes import BNModel
from .errors import DomainError, IoError
from .jsonio import ratio_parts
from .lattice import NumClass, project
from .walls import Window

CANVAS_W, CANVAS_H = 840, 600
PLOT = (60, 40, 560, 560)  # x_min, y_min, x_max, y_max in SVG units
LEGEND_MAX_ROWS = 40


def escape(text: str) -> str:
    """`text` as XML character data, as `xml.sax.saxutils.escape` gives it
    (that module imports the network stack)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _affine(origin: int, low: Fraction, scale: Fraction, sign: int):
    """t -> origin + sign*(t - low)*scale, t given as a rational's text in
    `ratio_text`'s form ("p" or "p/q", as `str(Fraction)` writes it too),
    as text with 9 decimals.  It is exact integer arithmetic and one
    correctly rounded int / int, so it equals `float(Fraction)` of the
    exact image."""
    k = sign * scale.numerator * low.denominator
    c = (origin * scale.denominator * low.denominator
         - sign * scale.numerator * low.numerator)
    dd = scale.denominator * low.denominator

    def image(text: str) -> str:
        num, den = ratio_parts(text)
        return f"{(k * num + c * den) / (dd * den):.9f}"

    return image


def _maps(window: Window):
    """(to_x, to_y, sx, sy): the canvas coordinate of b, and of w, each
    given as its text, and the two scales."""
    sx = Fraction(PLOT[2] - PLOT[0]) / (window.b_max - window.b_min)
    sy = Fraction(PLOT[3] - PLOT[1]) / (window.w_max - window.w_min)
    return (_affine(PLOT[0], window.b_min, sx, 1),
            _affine(PLOT[3], window.w_min, sy, -1), sx, sy)


def render_svg(records: Sequence[dict], window: Window, path: Optional[str],
               model: Optional[BNModel] = None,
               owner: Optional[NumClass] = None) -> str:
    """Render walls, given as the records that `enumerate_walls` returns
    (optionally with envelopes and the projection marker), to an SVG
    document; writes to `path` when given and returns the text.  An
    `owner` that is not the records' owner is refused."""
    owners = {tuple(rec["owner"]) for rec in records}
    if owner is not None:
        owners.add(owner.as_tuple())
    if len(owners) > 1:
        raise DomainError("walls belong to several classes: "
                          f"{ {NumClass(*o) for o in owners} }")
    if owner is None and owners:
        owner = NumClass(*next(iter(owners)))
    to_x, to_y, sx, sy = _maps(window)

    def at(b: Fraction, w: Fraction) -> tuple:
        return to_x(str(b)), to_y(str(w))

    parts = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_W}" height="{CANVAS_H}" '
        f'viewBox="0 0 {CANVAS_W} {CANVAS_H}">'
    )
    parts.append(
        "<!-- coordinate map: x = {x0} + (b - ({bmin})) * ({sx}); "
        "y = {y1} - (w - ({wmin})) * ({sy}); rationals exact -->".format(
            x0=PLOT[0], bmin=window.b_min, sx=sx,
            y1=PLOT[3], wmin=window.w_min, sy=sy,
        )
    )
    parts.append(
        f'<rect x="{PLOT[0]}" y="{PLOT[1]}" '
        f'width="{PLOT[2] - PLOT[0]}" height="{PLOT[3] - PLOT[1]}" '
        f'fill="white" stroke="black" stroke-width="1"/>'
    )
    label = (
        f"walls of {owner}" if owner is not None else "wall diagram"
    ) + (
        f" in [{window.b_min},{window.b_max}]x[{window.w_min},{window.w_max}]"
    )
    if model is not None:
        label += f", model {model.name} (g={model.genus.g})"
    parts.append(
        f'<text x="{PLOT[0]}" y="24" font-size="14">{escape(label)}</text>'
    )

    if model is not None:
        for name, fn, color in (
            ("lower", model.lower, "#2a7a2a"),
            ("upper", model.upper, "#7a2a2a"),
        ):
            for lo, hi, s, v, ref in fn.affine_parts():
                a = window.b_min if lo is None else max(lo, window.b_min)
                b = window.b_max if hi is None else min(hi, window.b_max)
                if a >= b:
                    continue
                wa = v + s * (a - ref)
                wb = v + s * (b - ref)
                parts.append(
                    f'<polyline fill="none" stroke="{color}" '
                    f'stroke-width="1" stroke-dasharray="4,3" points="'
                    f'{",".join(at(a, wa))} {",".join(at(b, wb))}">'
                    f"<title>{name} envelope</title></polyline>"
                )
            for x, v in fn.point_values:
                if window.b_min <= x <= window.b_max and (
                    window.w_min <= v <= window.w_max
                ):
                    cx, cy = at(x, v)
                    parts.append(
                        f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>'
                    )

    for i, rec in enumerate(records):
        a, b, c = rec["line"]
        (b0, w0), (b1, w1) = rec["segment"]
        parts.append(
            f'<polyline fill="none" stroke="#1f4fa0" stroke-width="1.5" '
            f'points="{to_x(b0)},{to_y(w0)} {to_x(b1)},{to_y(w1)}">'
            f"<title>wall {i}: {a}*b + {b}*w = {c}</title></polyline>"
        )

    if owner is not None and owner.r != 0:
        beta, eta = project(owner)
        if window.contains(PlanePoint(beta, eta)):
            cx, cy = at(beta, eta)
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" '
                f'r="4" fill="none" stroke="#a01f1f" stroke-width="1.5">'
                f"<title>projection of {owner}</title></circle>"
            )

    parts.append('<g font-size="10" font-family="monospace">')
    legend_y = PLOT[1] + 10
    shown = records[:LEGEND_MAX_ROWS]
    for i, rec in enumerate(shown):
        witnesses = ";".join(["(%d,%d,%d)" % tuple(d)
                              for d in rec["destabilizers"]])
        row = "{}b+{}w={} nu={} [{}]".format(*rec["line"], rec["nu"],
                                              witnesses)
        parts.append(
            f'<text x="{PLOT[2] + 8}" y="{legend_y + 12 * i}">'
            f"{escape(row)}</text>"
        )
    if len(records) > LEGEND_MAX_ROWS:
        parts.append(
            f'<text x="{PLOT[2] + 8}" y="{legend_y + 12 * len(shown)}">'
            f"... and {len(records) - LEGEND_MAX_ROWS} more walls</text>"
        )
    parts.append("</g>")
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"

    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write SVG to {path}: {exc}") from exc
    return text
