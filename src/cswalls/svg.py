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
from .jsonio import slope_text
from .lattice import NumClass, project
from .walls import Wall, Window

CANVAS_W, CANVAS_H = 840, 600
PLOT = (60, 40, 560, 560)  # x_min, y_min, x_max, y_max in SVG units
LEGEND_MAX_ROWS = 40


def escape(text: str) -> str:
    """`text` as XML character data, as `xml.sax.saxutils.escape` gives it
    (that module imports the network stack)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _maps(window: Window):
    sx = Fraction(PLOT[2] - PLOT[0]) / (window.b_max - window.b_min)
    sy = Fraction(PLOT[3] - PLOT[1]) / (window.w_max - window.w_min)

    def to_x(b) -> float:
        return float(PLOT[0] + (Fraction(b) - window.b_min) * sx)

    def to_y(w) -> float:
        return float(PLOT[3] - (Fraction(w) - window.w_min) * sy)

    return to_x, to_y, sx, sy


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def render_svg(walls: Sequence[Wall], window: Window, path: Optional[str],
               model: Optional[BNModel] = None,
               owner: Optional[NumClass] = None) -> str:
    """Render walls (optionally with envelopes and the projection marker)
    to an SVG document; writes to `path` when given and returns the text."""
    owners = {w.owner for w in walls}
    if len(owners) > 1:
        raise DomainError(f"walls belong to several classes: {owners}")
    if owner is None and owners:
        owner = next(iter(owners))
    to_x, to_y, sx, sy = _maps(window)

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
                    f'{_fmt(to_x(a))},{_fmt(to_y(wa))} '
                    f'{_fmt(to_x(b))},{_fmt(to_y(wb))}">'
                    f"<title>{name} envelope</title></polyline>"
                )
            for x, v in fn.point_values:
                if window.b_min <= x <= window.b_max and (
                    window.w_min <= v <= window.w_max
                ):
                    parts.append(
                        f'<circle cx="{_fmt(to_x(x))}" cy="{_fmt(to_y(v))}" '
                        f'r="2" fill="{color}"/>'
                    )

    for i, wall in enumerate(walls):
        p0, p1 = wall.segment
        parts.append(
            f'<polyline fill="none" stroke="#1f4fa0" stroke-width="1.5" '
            f'points="{_fmt(to_x(p0.b))},{_fmt(to_y(p0.w))} '
            f'{_fmt(to_x(p1.b))},{_fmt(to_y(p1.w))}">'
            f"<title>wall {i}: {wall.line.A}*b + {wall.line.B}*w = "
            f"{wall.line.C}</title></polyline>"
        )

    if owner is not None and owner.r != 0:
        beta, eta = project(owner)
        if window.contains(PlanePoint(beta, eta)):
            parts.append(
                f'<circle cx="{_fmt(to_x(beta))}" cy="{_fmt(to_y(eta))}" '
                f'r="4" fill="none" stroke="#a01f1f" stroke-width="1.5">'
                f"<title>projection of {owner}</title></circle>"
            )

    parts.append('<g font-size="10" font-family="monospace">')
    legend_y = PLOT[1] + 10
    shown = walls[:LEGEND_MAX_ROWS]
    for i, wall in enumerate(shown):
        witnesses = ";".join(str(d) for d in wall.destabilizers)
        row = (f"{wall.line.A}b+{wall.line.B}w={wall.line.C} "
               f"nu={slope_text(wall.nu_value)} [{witnesses}]")
        parts.append(
            f'<text x="{PLOT[2] + 8}" y="{legend_y + 12 * i}">'
            f"{escape(row)}</text>"
        )
    if len(walls) > LEGEND_MAX_ROWS:
        parts.append(
            f'<text x="{PLOT[2] + 8}" y="{legend_y + 12 * len(shown)}">'
            f"... and {len(walls) - LEGEND_MAX_ROWS} more walls</text>"
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
